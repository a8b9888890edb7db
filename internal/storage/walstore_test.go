package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func openTestWALStore(t *testing.T, dir string, opts WALStoreOptions) *WALStore {
	t.Helper()
	s, err := OpenWALStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWALStoreRoundTrip(t *testing.T) {
	s := openTestWALStore(t, t.TempDir(), WALStoreOptions{})
	defer func() { _ = s.Close() }()
	if _, ok, _ := s.Get("k"); ok {
		t.Fatal("empty store has key")
	}
	if err := s.Set("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("k")
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	if err := s.Set("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	v, _, _ = s.Get("k")
	if string(v) != "v2" {
		t.Fatalf("overwrite: %q", v)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("k"); ok {
		t.Fatal("delete failed")
	}
	if err := s.Delete("absent"); err != nil {
		t.Fatalf("delete absent: %v", err)
	}
	// Returned values must be copies.
	if err := s.Set("mut", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	v, _, _ = s.Get("mut")
	v[0] = 'X'
	v2, _, _ := s.Get("mut")
	if string(v2) != "abc" {
		t.Fatalf("aliased value: %q", v2)
	}
}

func TestWALStoreScanSortedPrefix(t *testing.T) {
	s := openTestWALStore(t, t.TempDir(), WALStoreOptions{})
	defer func() { _ = s.Close() }()
	for _, slot := range []uint64{5, 1, 3, 2, 4} {
		if err := s.Set(SlotKey("acc/", slot), []byte(fmt.Sprintf("v%d", slot))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Set("other", []byte("x")); err != nil {
		t.Fatal(err)
	}
	kvs, err := s.Scan("acc/")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 5 {
		t.Fatalf("scan returned %d keys", len(kvs))
	}
	for i, kv := range kvs {
		want := SlotKey("acc/", uint64(i+1))
		if kv.Key != want {
			t.Fatalf("scan[%d] = %q, want %q", i, kv.Key, want)
		}
	}
}

func TestWALStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTestWALStore(t, dir, WALStoreOptions{})
	for i := 0; i < 20; i++ {
		if err := s.Set(fmt.Sprintf("key-%02d", i), []byte(fmt.Sprintf("val-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Set("key-05", []byte("overwritten")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("key-07"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("late", nil); err != ErrStoreClosed {
		t.Fatalf("set after close: %v", err)
	}

	s2 := openTestWALStore(t, dir, WALStoreOptions{})
	defer func() { _ = s2.Close() }()
	v, ok, _ := s2.Get("key-05")
	if !ok || string(v) != "overwritten" {
		t.Fatalf("key-05 after reopen: %q %v", v, ok)
	}
	if _, ok, _ := s2.Get("key-07"); ok {
		t.Fatal("deleted key resurrected")
	}
	kvs, _ := s2.Scan("key-")
	if len(kvs) != 19 {
		t.Fatalf("reopen has %d keys, want 19", len(kvs))
	}
}

func TestWALStoreSyncWritesConcurrent(t *testing.T) {
	dir := t.TempDir()
	s := openTestWALStore(t, dir, WALStoreOptions{SyncWrites: true})
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := s.Set(fmt.Sprintf("w%d/k%02d", g, i), []byte("v")); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s.Syncs() > s.Appends() {
		t.Fatalf("syncs %d exceeds appends %d", s.Syncs(), s.Appends())
	}
	t.Logf("group commit: %d writes in %d fsyncs", s.Appends(), s.Syncs())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTestWALStore(t, dir, WALStoreOptions{})
	defer func() { _ = s2.Close() }()
	for g := 0; g < writers; g++ {
		kvs, err := s2.Scan(fmt.Sprintf("w%d/", g))
		if err != nil {
			t.Fatal(err)
		}
		if len(kvs) != perWriter {
			t.Fatalf("writer %d: %d keys survived, want %d", g, len(kvs), perWriter)
		}
	}
}

func TestWALStoreCheckpointCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openTestWALStore(t, dir, WALStoreOptions{segmentBytes: 256, compactBytes: -1})
	for i := 0; i < 200; i++ {
		if err := s.Set(fmt.Sprintf("key-%03d", i%20), []byte(strings.Repeat("v", 16))); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil { // a segment rolls at a barrier
			t.Fatal(err)
		}
	}
	segsBefore, _ := listSegments(dir)
	if len(segsBefore) < 3 {
		t.Fatalf("want >=3 segments before compaction, got %d", len(segsBefore))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	segsAfter, _ := listSegments(dir)
	if len(segsAfter) >= len(segsBefore) {
		t.Fatalf("compaction kept %d of %d segments", len(segsAfter), len(segsBefore))
	}
	ckpts, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) != 1 {
		t.Fatalf("want exactly 1 checkpoint, got %d", len(ckpts))
	}
	// More writes after the checkpoint land in the WAL suffix.
	if err := s.Set("post-ckpt", []byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestWALStore(t, dir, WALStoreOptions{})
	defer func() { _ = s2.Close() }()
	kvs, err := s2.Scan("key-")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 20 {
		t.Fatalf("recovered %d keys, want 20", len(kvs))
	}
	v, ok, _ := s2.Get("post-ckpt")
	if !ok || string(v) != "tail" {
		t.Fatalf("post-checkpoint write lost: %q %v", v, ok)
	}
}

func TestWALStoreAutoCompact(t *testing.T) {
	// A program's store rolls a segment past 4 MiB and compacts once 16 MiB
	// of sealed segments pile up; this test shrinks both to cross them.
	if o := (WALStoreOptions{}).withDefaults(); o.segmentBytes != 4<<20 || o.compactBytes != 16<<20 {
		t.Fatalf("zero WALStoreOptions normalizes to segment %d, compact %d; want 4 MiB, 16 MiB", o.segmentBytes, o.compactBytes)
	}
	dir := t.TempDir()
	s := openTestWALStore(t, dir, WALStoreOptions{segmentBytes: 256, compactBytes: 1024})
	for i := 0; i < 500; i++ {
		if err := s.Set(fmt.Sprintf("key-%03d", i%10), []byte(strings.Repeat("v", 16))); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil { // a segment rolls at a barrier
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ckpts, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) == 0 {
		t.Fatal("auto compaction never ran")
	}
	s2 := openTestWALStore(t, dir, WALStoreOptions{})
	defer func() { _ = s2.Close() }()
	kvs, _ := s2.Scan("key-")
	if len(kvs) != 10 {
		t.Fatalf("recovered %d keys, want 10", len(kvs))
	}
}

// TestWALStoreTornTailRecovery crashes the store by corrupting the WAL tail
// on disk and asserts every synced write survives.
func TestWALStoreTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openTestWALStore(t, dir, WALStoreOptions{SyncWrites: true})
	for i := 0; i < 10; i++ {
		if err := s.Set(fmt.Sprintf("durable-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: garbage after the last intact record.
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	path := segPath(dir, segs[len(segs)-1])
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
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
	kvs, err := s2.Scan("durable-")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 10 {
		t.Fatalf("recovered %d keys after torn tail, want 10", len(kvs))
	}
	// And the truncated log accepts new writes.
	if err := s2.Set("after", []byte("crash")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := openTestWALStore(t, dir, WALStoreOptions{})
	defer func() { _ = s3.Close() }()
	if _, ok, _ := s3.Get("after"); !ok {
		t.Fatal("post-crash write lost")
	}
}

func TestWALStoreCorruptNewestCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	s := openTestWALStore(t, dir, WALStoreOptions{compactBytes: -1})
	if err := s.Set("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ckpts, _ := listCheckpoints(dir)
	if len(ckpts) != 1 {
		t.Fatalf("checkpoints: %v", ckpts)
	}
	// Corrupt the checkpoint body; recovery must fall back to WAL replay
	// (the log was not compacted past a usable state here because the only
	// older state is the full log itself... the segments covering the
	// checkpoint are gone, so recovery starts empty and replays the tail).
	path := filepath.Join(dir, fmt.Sprintf("%s%016x%s", ckptPrefix, ckpts[0], ckptSuffix))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Open must succeed (corrupt checkpoint skipped), even though the data
	// it covered is unrecoverable in this constructed worst case.
	s2, err := OpenWALStore(dir, WALStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }()
	if err := s2.Set("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
}

// TestWALStoreStagedDelete pins the two deletes of a SyncWrites store apart:
// Delete waits for its own fsync, as Set does; DeleteBuffered waits for
// nothing, any number of them ride the caller's next Sync, and replay honours
// them in log order — a key written again after its staged delete is back.
func TestWALStoreStagedDelete(t *testing.T) {
	dir := t.TempDir()
	s := openTestWALStore(t, dir, WALStoreOptions{SyncWrites: true})
	const n = 100
	for i := 0; i < n; i++ {
		if err := s.SetBuffered(fmt.Sprintf("k/%03d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	before := s.Syncs()
	if err := s.Delete("k/000"); err != nil {
		t.Fatal(err)
	}
	if got := s.Syncs() - before; got != 1 {
		t.Fatalf("Delete on a SyncWrites store cost %d fsyncs, want its own 1", got)
	}

	before = s.Syncs()
	for i := 1; i < n; i++ {
		if err := s.DeleteBuffered(fmt.Sprintf("k/%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.DeleteBuffered("absent"); err != nil {
		t.Fatalf("staged delete of an absent key: %v", err)
	}
	if got := s.Syncs() - before; got != 0 {
		t.Fatalf("%d staged deletes cost %d fsyncs before any Sync", n-1, got)
	}
	if kvs, _ := s.Scan("k/"); len(kvs) != 0 {
		t.Fatalf("%d keys still visible after their staged deletes", len(kvs))
	}
	if err := s.SetBuffered("k/050", []byte("again")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := s.Syncs() - before; got != 1 {
		t.Fatalf("%d staged deletes and their Sync cost %d fsyncs, want 1", n-1, got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = openTestWALStore(t, dir, WALStoreOptions{SyncWrites: true})
	defer func() { _ = s.Close() }()
	kvs, err := s.Scan("k/")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 1 || kvs[0].Key != "k/050" || string(kvs[0].Value) != "again" {
		t.Fatalf("after reopen: %v, want only k/050=again", kvs)
	}
}

// TestOpenWALStoreCostsNoFsync: opening a store on a fresh directory fsyncs
// nothing, the new segment's directory entry included — that rides the first
// barrier covering the segment. The first Sync and a Close are each such a
// barrier, and each leaves a log that reopens with every record it synced.
// Staged writes that fill a segment cost no fsync either: the segment rolls
// at the next barrier, which makes every record durable first.
func TestOpenWALStoreCostsNoFsync(t *testing.T) {
	dirPending := func(s *WALStore) bool {
		s.wal.mu.Lock()
		defer s.wal.mu.Unlock()
		return s.wal.newSeg
	}
	put := func(t *testing.T, s *WALStore, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := s.SetBuffered(fmt.Sprintf("k/%03d", i), bytes.Repeat([]byte{'v'}, 40)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// reopen recovers a store from a copy of dir's files, as a crash leaves
	// them, and checks it holds k/000..k/<want-1>.
	reopen := func(t *testing.T, dir string, want int) {
		t.Helper()
		cp := t.TempDir()
		segs, _ := filepath.Glob(filepath.Join(dir, walSegPrefix+"*"))
		for _, seg := range segs {
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(cp, filepath.Base(seg)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		r := openTestWALStore(t, cp, WALStoreOptions{})
		defer func() { _ = r.Close() }()
		if kvs, _ := r.Scan("k/"); len(kvs) < want {
			t.Fatalf("reopened with %d records, want %d", len(kvs), want)
		}
	}
	open := func(t *testing.T, dir string) *WALStore {
		t.Helper()
		s := openTestWALStore(t, dir, WALStoreOptions{SyncWrites: true, segmentBytes: 1 << 10})
		if s.Syncs() != 0 || !dirPending(s) {
			t.Fatalf("open: %d fsyncs, directory entry pending %v; want 0 and pending", s.Syncs(), dirPending(s))
		}
		return s
	}

	t.Run("sync", func(t *testing.T) {
		dir := t.TempDir()
		s := open(t, dir)
		defer func() { _ = s.Close() }()
		put(t, s, 0, 4)
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if s.Syncs() != 1 || dirPending(s) {
			t.Fatalf("first Sync: %d fsyncs, directory entry pending %v; want 1 and durable", s.Syncs(), dirPending(s))
		}
		reopen(t, dir, 4)
	})
	t.Run("roll", func(t *testing.T) {
		dir := t.TempDir()
		s := open(t, dir)
		defer func() { _ = s.Close() }()
		put(t, s, 0, 40) // ~2.4 KB into a 1 KiB segment
		sealed := func() int {
			s.wal.mu.Lock()
			defer s.wal.mu.Unlock()
			return len(s.wal.sealed)
		}
		if s.Syncs() != 0 || s.wal.DurableLSN() != 0 || sealed() != 0 {
			t.Fatalf("staged writes past the segment size: %d fsyncs, durable through %d, %d sealed; want none",
				s.Syncs(), s.wal.DurableLSN(), sealed())
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if s.Syncs() != 1 || s.wal.DurableLSN() != 40 || sealed() != 1 {
			t.Fatalf("the barrier: %d fsyncs, durable through %d, %d sealed; want 1, 40, 1",
				s.Syncs(), s.wal.DurableLSN(), sealed())
		}
		put(t, s, 40, 44)
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		reopen(t, dir, 44)
	})
	t.Run("close", func(t *testing.T) {
		dir := t.TempDir()
		s := open(t, dir)
		put(t, s, 0, 4)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if dirPending(s) {
			t.Fatal("Close left the segment's directory entry pending")
		}
		reopen(t, dir, 4)
		// A reopened segment may have been created by a process that died
		// before any barrier: its entry waits for the next one again.
		r := openTestWALStore(t, dir, WALStoreOptions{})
		defer func() { _ = r.Close() }()
		if r.Syncs() != 0 || !dirPending(r) {
			t.Fatalf("reopen: %d fsyncs, directory entry pending %v; want 0 and pending", r.Syncs(), dirPending(r))
		}
	})
}
