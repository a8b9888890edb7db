package storage

import (
	"bytes"
	"testing"

	"repro/internal/types"
)

// TestChunkManifestRoundTrip exercises the manifest codec across the corners
// that matter for speculative start: Base (the installer's starting apply
// cursor) must survive the trip exactly, alongside format and CRCs.
func TestChunkManifestRoundTrip(t *testing.T) {
	cases := []ChunkManifest{
		{},
		{Format: 1},
		{Format: 2, Base: 1, CRCs: []uint32{0xdeadbeef}},
		{Format: 7, Base: types.Slot(1)<<40 + 3, CRCs: []uint32{0, 1, 0xffffffff, 42}},
	}
	for i, m := range cases {
		got, err := DecodeChunkManifest(EncodeChunkManifest(m))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Format != m.Format || got.Base != m.Base || len(got.CRCs) != len(m.CRCs) {
			t.Fatalf("case %d: round trip changed: %+v -> %+v", i, m, got)
		}
		for j := range m.CRCs {
			if got.CRCs[j] != m.CRCs[j] {
				t.Fatalf("case %d: CRC %d changed", i, j)
			}
		}
	}
}

func TestChunkManifestRejectsTrailingBytes(t *testing.T) {
	data := append(EncodeChunkManifest(ChunkManifest{Format: 1, Base: 9}), 0x00)
	if _, err := DecodeChunkManifest(data); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestChunkedBlobPreservesBase writes a chunked blob whose manifest carries a
// non-zero base index and reads it back through the resume path: the Base an
// installer will adopt as its apply cursor must come back intact.
func TestChunkedBlobPreservesBase(t *testing.T) {
	s := NewMem()
	chunks := [][]byte{[]byte("alpha"), []byte("beta"), nil, []byte("delta")}
	m := ChunkManifest{Format: 3, Base: 12345, CRCs: make([]uint32, len(chunks))}
	for i, c := range chunks {
		m.CRCs[i] = ChunkCRC(c)
	}
	if err := WriteChunkedCommit(s, "snap/9", m, func(i int) []byte { return chunks[i] }); err != nil {
		t.Fatal(err)
	}
	got, gotChunks, complete, err := ReadChunked(s, "snap/9")
	if err != nil {
		t.Fatal(err)
	}
	if !complete {
		t.Fatal("blob read back incomplete")
	}
	if got.Base != m.Base || got.Format != m.Format {
		t.Fatalf("manifest changed: %+v -> %+v", m, got)
	}
	for i := range chunks {
		if !bytes.Equal(gotChunks[i], chunks[i]) {
			t.Fatalf("chunk %d changed", i)
		}
	}
}

// FuzzDecodeChunkManifest fuzzes the manifest codec: arbitrary stored bytes
// (a torn or bit-flipped meta key) must never panic and must either fail
// cleanly or decode to a manifest that re-encodes identically — Base
// included, since a shifted Base silently corrupts the installer's apply
// cursor.
func FuzzDecodeChunkManifest(f *testing.F) {
	f.Add(EncodeChunkManifest(ChunkManifest{}))
	f.Add(EncodeChunkManifest(ChunkManifest{Format: 1, CRCs: []uint32{1, 2, 3}}))
	f.Add(EncodeChunkManifest(ChunkManifest{Format: 2, Base: 1 << 33, CRCs: []uint32{0xdeadbeef}}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeChunkManifest(data)
		if err != nil {
			return
		}
		enc := EncodeChunkManifest(m)
		again, err := DecodeChunkManifest(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Format != m.Format || again.Base != m.Base || len(again.CRCs) != len(m.CRCs) {
			t.Fatalf("round trip changed: %+v -> %+v", m, again)
		}
		for i := range m.CRCs {
			if again.CRCs[i] != m.CRCs[i] {
				t.Fatalf("round trip changed CRC %d", i)
			}
		}
	})
}

// FuzzReadChunkedResume drives the store-level resume read over a partially
// corrupted blob: whatever bytes sit under the chunk keys, ReadChunked must
// never panic and must report complete=true only when every chunk matches its
// manifest CRC.
func FuzzReadChunkedResume(f *testing.F) {
	f.Add([]byte("good"), []byte("bad"), true)
	f.Add([]byte{}, []byte{}, false)
	f.Fuzz(func(t *testing.T, c0, c1 []byte, corrupt bool) {
		s := NewMem()
		chunks := [][]byte{c0, c1}
		m := ChunkManifest{Format: 1, Base: 5, CRCs: []uint32{ChunkCRC(c0), ChunkCRC(c1)}}
		if err := WriteChunkedCommit(s, "p", m, func(i int) []byte { return chunks[i] }); err != nil {
			t.Fatal(err)
		}
		damaged := false
		if corrupt {
			bad := append(append([]byte(nil), c1...), 0x01)
			damaged = ChunkCRC(bad) != m.CRCs[1]
			if err := s.Set(ChunkKey("p", 1), bad); err != nil {
				t.Fatal(err)
			}
		}
		got, gotChunks, complete, err := ReadChunked(s, "p")
		if err != nil {
			t.Fatal(err)
		}
		if got.Base != 5 {
			t.Fatalf("base changed: %d", got.Base)
		}
		if damaged {
			if complete {
				t.Fatal("corrupt chunk reported complete")
			}
			if gotChunks[1] != nil {
				t.Fatal("corrupt chunk surfaced instead of nil")
			}
		} else if !corrupt && (!complete || !bytes.Equal(gotChunks[0], c0) || !bytes.Equal(gotChunks[1], c1)) {
			t.Fatalf("clean blob read back wrong: complete=%v", complete)
		}
	})
}

// TestWriteChunkedCommitReplacesInPlace overwrites a blob with a smaller
// successor through the commit-ordered writer: the new manifest must be
// adopted, stale chunk keys beyond the new count must be gone, and the read
// back must be complete.
func TestWriteChunkedCommitReplacesInPlace(t *testing.T) {
	s := NewMem()
	write := func(base types.Slot, parts ...string) {
		m := ChunkManifest{Format: 2, Base: base, CRCs: make([]uint32, len(parts))}
		for i, p := range parts {
			m.CRCs[i] = ChunkCRC([]byte(p))
		}
		if err := WriteChunkedCommit(s, "snap", m, func(i int) []byte { return []byte(parts[i]) }); err != nil {
			t.Fatal(err)
		}
	}
	write(100, "one", "two", "three", "four")
	write(200, "bigger", "newer")

	m, chunks, complete, err := ReadChunked(s, "snap")
	if err != nil {
		t.Fatal(err)
	}
	if !complete || m.Base != 200 || m.Chunks() != 2 {
		t.Fatalf("after overwrite: complete=%v base=%d chunks=%d", complete, m.Base, m.Chunks())
	}
	if string(chunks[0]) != "bigger" || string(chunks[1]) != "newer" {
		t.Fatalf("chunk content: %q %q", chunks[0], chunks[1])
	}
	for i := 2; i < 4; i++ {
		if _, ok, _ := s.Get(ChunkKey("snap", i)); ok {
			t.Fatalf("stale chunk %d survived the overwrite", i)
		}
	}
}

// TestWriteChunkedCommitTornWriteRecoverable simulates a crash between the
// new chunks and the new manifest: the old manifest remains authoritative
// and ReadChunked reports the blob incomplete (CRC mismatch), never a new
// manifest describing missing chunks.
func TestWriteChunkedCommitTornWriteRecoverable(t *testing.T) {
	s := NewMem()
	old := []string{"aaa", "bbb"}
	m1 := ChunkManifest{Format: 2, Base: 10, CRCs: []uint32{ChunkCRC([]byte(old[0])), ChunkCRC([]byte(old[1]))}}
	if err := WriteChunkedCommit(s, "snap", m1, func(i int) []byte { return []byte(old[i]) }); err != nil {
		t.Fatal(err)
	}

	// Torn overwrite: the successor's chunks land, the manifest does not —
	// exactly what a crash between the two Syncs leaves behind.
	next := []string{"XXXXX", "YYYYY"}
	for i, p := range next {
		if err := s.Set(ChunkKey("snap", i), []byte(p)); err != nil {
			t.Fatal(err)
		}
	}

	m, chunks, complete, err := ReadChunked(s, "snap")
	if err != nil {
		t.Fatal(err)
	}
	if m.Base != 10 {
		t.Fatalf("manifest base %d; torn write replaced the manifest", m.Base)
	}
	if complete {
		t.Fatal("blob read back complete despite CRC-mismatching chunks")
	}
	for i, c := range chunks {
		if c != nil {
			t.Fatalf("chunk %d passed CRC against the old manifest: %q", i, c)
		}
	}
}

// commitBlob writes n chunks of size bytes each through WriteChunkedCommit.
func commitBlob(t *testing.T, s Store, prefix string, n, size int) {
	t.Helper()
	data := bytes.Repeat([]byte{byte(n)}, size)
	m := ChunkManifest{Format: 2, Base: types.Slot(n), CRCs: make([]uint32, n)}
	for i := range m.CRCs {
		m.CRCs[i] = ChunkCRC(data)
	}
	if err := WriteChunkedCommit(s, prefix, m, func(int) []byte { return data }); err != nil {
		t.Fatal(err)
	}
	if got, _, complete, err := ReadChunked(s, prefix); err != nil || !complete || got.Chunks() != n {
		t.Fatalf("read back after commit: chunks=%d complete=%v err=%v", got.Chunks(), complete, err)
	}
}

// TestWriteChunkedCommitFsyncBudget counts what a commit costs on a store
// where every Set waits for its own fsync: nobody is promised a chunk, so the
// chunks share barriers — one per MiB staged — and only the manifest pays for
// itself. One fsynced Set per chunk made these 34 (33 chunks and the manifest,
// a node's empty initial snapshot) and 33.
func TestWriteChunkedCommitFsyncBudget(t *testing.T) {
	cases := []struct {
		name         string
		chunks, size int
		budget       int64
	}{
		{"33 chunks under 1 MiB in all", 33, 1 << 10, 2},
		{"8 MiB in 256 KiB chunks", 32, 256 << 10, 11},
	}
	for _, c := range cases {
		s := openTestWALStore(t, t.TempDir(), WALStoreOptions{SyncWrites: true})
		before := s.Syncs()
		commitBlob(t, s, "snap", c.chunks, c.size)
		if got := s.Syncs() - before; got > c.budget {
			t.Errorf("%s: %d fsyncs, want <= %d", c.name, got, c.budget)
		} else {
			t.Logf("%s: %d fsyncs", c.name, got)
		}
		_ = s.Close()
	}
}

// opLog records the order of a store's mutations.
type opLog struct {
	*MemStore
	ops []string
}

func (l *opLog) Set(key string, value []byte) error {
	l.ops = append(l.ops, "set "+key)
	return l.MemStore.Set(key, value)
}

func (l *opLog) SetBuffered(key string, value []byte) error {
	l.ops = append(l.ops, "set "+key)
	return l.MemStore.SetBuffered(key, value)
}

func (l *opLog) Delete(key string) error {
	l.ops = append(l.ops, "delete "+key)
	return l.MemStore.Delete(key)
}

func (l *opLog) DeleteBuffered(key string) error {
	l.ops = append(l.ops, "delete "+key)
	return l.MemStore.DeleteBuffered(key)
}

func (l *opLog) Sync() error {
	l.ops = append(l.ops, "sync")
	return l.MemStore.Sync()
}

// TestWriteChunkedCommitPrunesBeforeManifest replaces a 40-chunk blob with a
// 33-chunk one: the seven stale chunks are dropped, and both their removal
// and every new chunk are behind a Sync before the manifest is written — a
// crash at any point leaves a manifest whose chunks are all there or fail
// their CRC, never one that a longer predecessor's tail outlives.
func TestWriteChunkedCommitPrunesBeforeManifest(t *testing.T) {
	s := &opLog{MemStore: NewMem()}
	commitBlob(t, s, "snap", 40, 64)
	s.ops = nil
	commitBlob(t, s, "snap", 33, 64)

	manifestAt, lastSync, pruned := -1, -1, 0
	for i, op := range s.ops {
		switch {
		case op == "set "+ManifestKey("snap"):
			manifestAt = i
		case manifestAt >= 0:
			// only the closing Sync may follow the manifest
			if op != "sync" {
				t.Fatalf("%q after the manifest", op)
			}
		case op == "sync":
			lastSync = i
		case len(op) > 7 && op[:7] == "delete ":
			pruned++
			lastSync = -1
		default:
			lastSync = -1 // a chunk write: not yet behind a barrier
		}
	}
	if manifestAt < 0 {
		t.Fatal("no manifest written")
	}
	if pruned != 7 {
		t.Fatalf("pruned %d stale chunks, want 7", pruned)
	}
	if lastSync != manifestAt-1 {
		t.Fatalf("the manifest is not directly behind a Sync: %v", s.ops[max(0, manifestAt-3):manifestAt+1])
	}
	for i := 33; i < 40; i++ {
		if _, ok, _ := s.Get(ChunkKey("snap", i)); ok {
			t.Fatalf("stale chunk %d survived", i)
		}
	}
	// And after a power loss right behind the commit it is all still true.
	s.PowerLoss()
	s.Reopen()
	if m, _, complete, err := ReadChunked(s, "snap"); err != nil || !complete || m.Chunks() != 33 {
		t.Fatalf("after power loss: chunks=%d complete=%v err=%v", m.Chunks(), complete, err)
	}
}
