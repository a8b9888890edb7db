package cluster

import (
	"strings"
	"testing"
)

// The one backend-name switch: what it opens, and that every other name —
// the retired "file" backend included — is rejected the same way by Open and
// by the CLI's up-front CheckStorage.
func TestStoresBackendNames(t *testing.T) {
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"", true},
		{StorageMem, true},
		{StorageWAL, true},
		{"file", false},
		{"bogus", false},
	} {
		stores := Stores{Backend: tc.name, Dir: t.TempDir()}
		st, err := stores.Open("n1")
		stores.Close()
		check := CheckStorage(tc.name)
		if tc.ok {
			if err != nil || check != nil || st == nil {
				t.Fatalf("%q: Open says %v, CheckStorage says %v", tc.name, err, check)
			}
			continue
		}
		if err == nil || check == nil || err.Error() != check.Error() || !strings.Contains(err.Error(), "unknown storage backend") {
			t.Fatalf("%q: Open says %v, CheckStorage says %v; want the same unknown-backend error", tc.name, err, check)
		}
	}
}
