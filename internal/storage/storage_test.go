package storage

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestSetGetDelete(t *testing.T) {
	s := NewMem()
	if _, ok, _ := s.Get("k"); ok {
		t.Fatal("empty store has key")
	}
	if err := s.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("k")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("k"); ok {
		t.Fatal("delete did not remove key")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := NewMem()
	_ = s.Set("k", []byte("abc"))
	v, _, _ := s.Get("k")
	v[0] = 'z'
	v2, _, _ := s.Get("k")
	if string(v2) != "abc" {
		t.Fatal("Get leaked internal buffer")
	}
}

func TestScanSortedByKey(t *testing.T) {
	s := NewMem()
	_ = s.Set("log/3", []byte("c"))
	_ = s.Set("log/1", []byte("a"))
	_ = s.Set("log/2", []byte("b"))
	_ = s.Set("other", []byte("x"))
	kvs, err := s.Scan("log/")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 3 {
		t.Fatalf("scan returned %d", len(kvs))
	}
	for i, want := range []string{"log/1", "log/2", "log/3"} {
		if kvs[i].Key != want {
			t.Fatalf("scan order: %v", kvs)
		}
	}
}

func TestCrashDiscardsUnsynced(t *testing.T) {
	s := NewMemWithOptions(MemOptions{AutoSync: false})
	_ = s.Set("durable", []byte("1"))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	_ = s.Set("volatile", []byte("2"))
	_ = s.Delete("durable")

	// Before crash, the writer sees its own writes.
	if _, ok, _ := s.Get("volatile"); !ok {
		t.Fatal("dirty write invisible to writer")
	}
	if _, ok, _ := s.Get("durable"); ok {
		t.Fatal("dirty delete invisible to writer")
	}

	s.Crash()

	if _, ok, _ := s.Get("volatile"); ok {
		t.Fatal("un-synced write survived crash")
	}
	v, ok, _ := s.Get("durable")
	if !ok || string(v) != "1" {
		t.Fatal("synced write lost in crash")
	}
}

func TestAutoSyncSurvivesCrash(t *testing.T) {
	s := NewMem()
	_ = s.Set("k", []byte("v"))
	s.Crash()
	if _, ok, _ := s.Get("k"); !ok {
		t.Fatal("auto-synced write lost in crash")
	}
}

func TestScanSeesDirtyOverlay(t *testing.T) {
	s := NewMemWithOptions(MemOptions{AutoSync: false})
	_ = s.Set("p/a", []byte("1"))
	_ = s.Sync()
	_ = s.Set("p/b", []byte("2"))
	_ = s.Delete("p/a")
	kvs, _ := s.Scan("p/")
	if len(kvs) != 1 || kvs[0].Key != "p/b" {
		t.Fatalf("overlay scan wrong: %v", kvs)
	}
}

// TestScanKeysListsWhatScanSees: on MemStore (stable keys, staged writes and
// staged deletes), on WALStore, and through Scan on a store with no listing
// of its own, ScanKeys names exactly the keys Scan returns.
func TestScanKeysListsWhatScanSees(t *testing.T) {
	wal, err := OpenWALStore(t.TempDir(), WALStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	stores := map[string]Stager{
		"mem":    NewMemWithOptions(MemOptions{AutoSync: false}),
		"wal":    wal,
		"prefix": WithPrefix(NewMem(), "g1/"),
	}
	for name, s := range stores {
		for _, k := range []string{"p/a", "p/b", "p/c", "q/a"} {
			if err := s.SetBuffered(k, []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		_ = s.SetBuffered("p/d", []byte("staged"))
		_ = s.DeleteBuffered("p/b")
		keys, err := ScanKeys(s, "p/")
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(keys)
		if want := []string{"p/a", "p/c", "p/d"}; !slices.Equal(keys, want) {
			t.Errorf("%s: ScanKeys = %v, want %v", name, keys, want)
		}
	}
}

func TestClosedStoreFails(t *testing.T) {
	s := NewMem()
	s.Close()
	if err := s.Set("k", nil); err == nil {
		t.Fatal("Set after Close succeeded")
	}
	if _, _, err := s.Get("k"); err == nil {
		t.Fatal("Get after Close succeeded")
	}
	if _, err := s.Scan(""); err == nil {
		t.Fatal("Scan after Close succeeded")
	}
	if err := s.Sync(); err == nil {
		t.Fatal("Sync after Close succeeded")
	}
	if err := s.Delete("k"); err == nil {
		t.Fatal("Delete after Close succeeded")
	}
}

func TestWriteAndSyncCounters(t *testing.T) {
	s := NewMemWithOptions(MemOptions{AutoSync: false})
	_ = s.Set("a", nil)
	_ = s.Set("b", nil)
	_ = s.Delete("a")
	if s.Writes() != 3 {
		t.Fatalf("writes = %d", s.Writes())
	}
	if s.Syncs() != 0 {
		t.Fatalf("syncs = %d", s.Syncs())
	}
	_ = s.Sync()
	if s.Syncs() != 1 {
		t.Fatalf("syncs = %d", s.Syncs())
	}
	if s.Len() != 1 {
		t.Fatalf("stable len = %d", s.Len())
	}
}

func TestSlotKeyOrdering(t *testing.T) {
	f := func(a, b uint64) bool {
		ka, kb := SlotKey("log/", a), SlotKey("log/", b)
		return (a < b) == (ka < kb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// WAL recovery order and every store written before SlotKey dropped fmt depend
// on the key bytes, so they are pinned to the old rendering.
func TestSlotKeyMatchesSprintf(t *testing.T) {
	for _, slot := range []uint64{0, 1, 1e19, math.MaxUint64} {
		if got, want := SlotKey("pxs/7/dec/", slot), fmt.Sprintf("%s%020d", "pxs/7/dec/", slot); got != want {
			t.Errorf("SlotKey(%d) = %q, want %q", slot, got, want)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewMem()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("g%d/%d", g, i)
				_ = s.Set(key, []byte{byte(i)})
				if _, ok, _ := s.Get(key); !ok {
					t.Errorf("lost own write %s", key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 8*200 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestStorePropertyLastWriteWins(t *testing.T) {
	f := func(writes []uint8) bool {
		s := NewMem()
		var last []byte
		for _, w := range writes {
			last = []byte{w}
			_ = s.Set("k", last)
		}
		v, ok, _ := s.Get("k")
		if len(writes) == 0 {
			return !ok
		}
		return ok && v[0] == last[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestMemStoreStagingAndPowerLoss is the crash model the engine's power-loss
// tests stand on: on a NewMem store a Set (or Delete) is stable at once, a
// SetBuffered or DeleteBuffered only after Sync; PowerLoss forgets the rest
// and fails everything until Reopen; and a plain write supersedes what was
// staged for its key.
func TestMemStoreStagingAndPowerLoss(t *testing.T) {
	s := NewMem()
	_ = s.Set("stable", []byte("1"))
	_ = s.Set("doomed", []byte("1"))
	_ = s.SetBuffered("staged", []byte("2"))
	_ = s.DeleteBuffered("stable")
	if _, ok, _ := s.Get("stable"); ok {
		t.Fatal("staged delete invisible to the writer")
	}
	_ = s.SetBuffered("doomed", []byte("stale"))
	_ = s.Delete("doomed") // after the staged write: the key is gone, now and after Sync
	if _, ok, _ := s.Get("doomed"); ok {
		t.Fatal("a staged write outlived the plain Delete that followed it")
	}

	s.PowerLoss()
	if err := s.Set("k", nil); err != ErrStoreClosed {
		t.Fatalf("Set after power loss: %v", err)
	}
	if err := s.SetBuffered("k", nil); err != ErrStoreClosed {
		t.Fatalf("SetBuffered after power loss: %v", err)
	}
	if err := s.DeleteBuffered("k"); err != ErrStoreClosed {
		t.Fatalf("DeleteBuffered after power loss: %v", err)
	}
	if err := s.Sync(); err != ErrStoreClosed {
		t.Fatalf("Sync after power loss: %v", err)
	}

	s.Reopen()
	if _, ok, _ := s.Get("staged"); ok {
		t.Fatal("an unsynced staged write survived power loss")
	}
	if v, ok, _ := s.Get("stable"); !ok || string(v) != "1" {
		t.Fatal("an unsynced staged delete took effect across power loss")
	}
	if _, ok, _ := s.Get("doomed"); ok {
		t.Fatal("a plainly deleted key came back")
	}

	_ = s.SetBuffered("staged", []byte("2"))
	_ = s.DeleteBuffered("stable")
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.PowerLoss()
	s.Reopen()
	if v, ok, _ := s.Get("staged"); !ok || string(v) != "2" {
		t.Fatal("a synced staged write lost")
	}
	if _, ok, _ := s.Get("stable"); ok {
		t.Fatal("a synced staged delete came back")
	}
}
