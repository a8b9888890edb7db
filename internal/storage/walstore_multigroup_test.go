package storage

import (
	"fmt"
	"os"
	"testing"
)

// These tests cover the multi-group sharing contract: N prefixed views
// (one per RSM group) write interleaved records into ONE WALStore, and
// recovery must demultiplex them by key prefix with no cross-group loss,
// no cross-group leakage, and no double-apply after checkpoint compaction.

// groupViews opens nGroups prefixed views (group IDs 1..nGroups) over s.
func groupViews(s *WALStore, nGroups int) []Store {
	views := make([]Store, nGroups)
	for g := range views {
		views[g] = WithPrefix(s, GroupPrefix(uint64(g+1)))
	}
	return views
}

// TestWALStoreMultiGroupInterleavedRecovery: interleaved group-tagged
// records all survive a clean close/reopen, each visible only to its own
// group's view.
func TestWALStoreMultiGroupInterleavedRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openTestWALStore(t, dir, WALStoreOptions{})
	const nGroups, perGroup = 4, 25
	views := groupViews(s, nGroups)
	// Interleave: one record per group per round, same logical keys in every
	// group so any prefix mixup shows up as a wrong value.
	for i := 0; i < perGroup; i++ {
		for g, v := range views {
			if err := v.Set(fmt.Sprintf("slot-%03d", i), []byte(fmt.Sprintf("g%d-i%d", g+1, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestWALStore(t, dir, WALStoreOptions{})
	defer func() { _ = s2.Close() }()
	for g, v := range groupViews(s2, nGroups) {
		kvs, err := v.Scan("slot-")
		if err != nil {
			t.Fatal(err)
		}
		if len(kvs) != perGroup {
			t.Fatalf("group %d recovered %d records, want %d", g+1, len(kvs), perGroup)
		}
		for i, kv := range kvs {
			want := fmt.Sprintf("g%d-i%d", g+1, i)
			if string(kv.Value) != want {
				t.Fatalf("group %d %s = %q, want %q (cross-group leak)", g+1, kv.Key, kv.Value, want)
			}
		}
	}
}

// TestWALStoreMultiGroupTornTail: a torn tail after interleaved synced
// writes truncates at the corruption point only — every group's synced
// records survive, and no group sees another's keys.
func TestWALStoreMultiGroupTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openTestWALStore(t, dir, WALStoreOptions{SyncWrites: true})
	const nGroups, perGroup = 3, 10
	views := groupViews(s, nGroups)
	for i := 0; i < perGroup; i++ {
		for g, v := range views {
			if err := v.Set(fmt.Sprintf("durable-%d", i), []byte(fmt.Sprintf("g%d", g+1))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	f, err := os.OpenFile(segPath(dir, segs[len(segs)-1]), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x17, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestWALStore(t, dir, WALStoreOptions{SyncWrites: true})
	defer func() { _ = s2.Close() }()
	for g, v := range groupViews(s2, nGroups) {
		kvs, err := v.Scan("durable-")
		if err != nil {
			t.Fatal(err)
		}
		if len(kvs) != perGroup {
			t.Fatalf("group %d: %d records after torn tail, want %d", g+1, len(kvs), perGroup)
		}
		for _, kv := range kvs {
			if string(kv.Value) != fmt.Sprintf("g%d", g+1) {
				t.Fatalf("group %d key %s holds %q", g+1, kv.Key, kv.Value)
			}
		}
	}
}

// TestWALStoreMultiGroupCheckpointCompaction: checkpoint compaction over a
// log holding several groups' records preserves each group's latest state
// exactly once — overwrites compact away per group, deletes stay deleted,
// and post-checkpoint tail writes replay on top without double-apply.
func TestWALStoreMultiGroupCheckpointCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openTestWALStore(t, dir, WALStoreOptions{segmentBytes: 256, compactBytes: -1})
	const nGroups = 3
	views := groupViews(s, nGroups)
	// Churn the same 10 keys per group across many rounds so compaction has
	// garbage to drop in every group's namespace.
	for round := 0; round < 30; round++ {
		for g, v := range views {
			if err := v.Set(fmt.Sprintf("key-%d", round%10), []byte(fmt.Sprintf("g%d-r%d", g+1, round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Group 2 deletes one key; the tombstone must survive compaction.
	if err := views[1].Delete("key-3"); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint tail writes, one per group.
	for g, v := range views {
		if err := v.Set("post-ckpt", []byte(fmt.Sprintf("tail-g%d", g+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestWALStore(t, dir, WALStoreOptions{})
	defer func() { _ = s2.Close() }()
	for g, v := range groupViews(s2, nGroups) {
		kvs, err := v.Scan("key-")
		if err != nil {
			t.Fatal(err)
		}
		wantKeys := 10
		if g == 1 {
			wantKeys = 9 // key-3 deleted
		}
		if len(kvs) != wantKeys {
			t.Fatalf("group %d recovered %d keys, want %d", g+1, len(kvs), wantKeys)
		}
		for _, kv := range kvs {
			var round int
			if _, err := fmt.Sscanf(kv.Key, "key-%d", &round); err != nil {
				t.Fatalf("group %d unexpected key %q", g+1, kv.Key)
			}
			// Latest write to key-k happened in round 20+k.
			want := fmt.Sprintf("g%d-r%d", g+1, 20+round)
			if string(kv.Value) != want {
				t.Fatalf("group %d %s = %q, want %q", g+1, kv.Key, kv.Value, want)
			}
		}
		if g == 1 {
			if _, ok, _ := v.Get("key-3"); ok {
				t.Fatal("group 2 delete resurrected by compaction")
			}
		}
		val, ok, _ := v.Get("post-ckpt")
		if !ok || string(val) != fmt.Sprintf("tail-g%d", g+1) {
			t.Fatalf("group %d post-checkpoint tail = %q %v", g+1, val, ok)
		}
	}
}
