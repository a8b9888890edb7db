package storage

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
)

// A nil or empty value is a value, not a delete: the key exists and reads back
// empty — staged, synced, and after the store has been lost and reopened — on
// both backends. (MemStore used to mark a staged delete with a nil value,
// which only worked while every write was cloned into a non-nil slice.)
func TestStoreKeepsNilAndEmptyValues(t *testing.T) {
	type backend struct {
		name   string
		store  Stager
		reopen func() Stager // lose what is unsynced, come back up
	}
	mem := NewMem()
	dir := t.TempDir()
	wal := openTestWALStore(t, dir, WALStoreOptions{SyncWrites: true})
	backends := []backend{
		{"mem", mem, func() Stager { mem.PowerLoss(); mem.Reopen(); return mem }},
		{"wal", wal, func() Stager {
			if err := wal.Close(); err != nil {
				t.Fatal(err)
			}
			wal = openTestWALStore(t, dir, WALStoreOptions{SyncWrites: true})
			t.Cleanup(func() { _ = wal.Close() })
			return wal
		}},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			s := b.store
			present := func(when string, keys ...string) {
				t.Helper()
				for _, k := range keys {
					v, ok, err := s.Get(k)
					if err != nil || !ok || len(v) != 0 {
						t.Fatalf("%s: Get(%s) = %q, %v, %v; want an empty value that exists", when, k, v, ok, err)
					}
				}
				kvs, err := s.Scan("v/")
				if err != nil || len(kvs) != len(keys) {
					t.Fatalf("%s: Scan sees %d of %d keys (%v)", when, len(kvs), len(keys), err)
				}
			}
			if err := s.SetBuffered("v/staged-nil", nil); err != nil {
				t.Fatal(err)
			}
			if err := s.SetBuffered("v/staged-empty", []byte{}); err != nil {
				t.Fatal(err)
			}
			if err := s.Set("v/set-nil", nil); err != nil {
				t.Fatal(err)
			}
			keys := []string{"v/staged-nil", "v/staged-empty", "v/set-nil"}
			present("staged", keys...)
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			present("synced", keys...)
			// A staged delete over a synced nil value is still a delete.
			if err := s.DeleteBuffered("v/set-nil"); err != nil {
				t.Fatal(err)
			}
			present("after a staged delete", keys[:2]...)
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			s = b.reopen()
			present("reopened", keys[:2]...)
		})
	}
}

// Replay copies values out of the buffer it reads segments into (applyRecord),
// so nothing a reopened store serves depends on that buffer's later life:
// over several segments, and after the reopened log has been appended to
// again, every value is intact.
func TestWALReplayDoesNotAliasReadBuffer(t *testing.T) {
	dir := t.TempDir()
	opts := WALStoreOptions{SegmentBytes: 4 << 10, CompactBytes: -1}
	s := openTestWALStore(t, dir, opts)
	const n = 64
	value := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, 200+i) }
	for i := 0; i < n; i++ {
		if err := s.Set(fmt.Sprintf("k/%03d", i), value(i)); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil { // a segment rolls at a barrier
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg")); len(segs) < 2 {
		t.Fatalf("%d segments, want the values spread over at least 2", len(segs))
	}

	s = openTestWALStore(t, dir, opts)
	defer func() { _ = s.Close() }()
	for i := 0; i < n; i++ {
		if err := s.Set(fmt.Sprintf("later/%03d", i), value(n-i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		v, ok, err := s.Get(fmt.Sprintf("k/%03d", i))
		if err != nil || !ok || !bytes.Equal(v, value(i)) {
			t.Fatalf("key %d after reopen: ok=%v err=%v, %d bytes", i, ok, err, len(v))
		}
	}
}
