package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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
func commitBlob(t *testing.T, s Stager, prefix string, n, size int) {
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
// chunks, the prune and the manifest are staged and share barriers — one per
// MiB staged and the closing one. One fsynced Set per chunk made these 34 (33
// chunks and the manifest, a node's empty initial snapshot) and 33; a barrier
// before the manifest and the manifest's own made them 2 and 11.
func TestWriteChunkedCommitFsyncBudget(t *testing.T) {
	cases := []struct {
		name         string
		chunks, size int
		budget       int64
	}{
		{"33 chunks under 1 MiB in all", 33, 1 << 10, 1},
		{"8 MiB in 256 KiB chunks", 32, 256 << 10, 10},
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

// TestDeleteChunkedFsyncBudget retires a node's 33-chunk snapshot on a store
// where every Delete waits for its own fsync: the chunks and the manifest are
// staged, and one Sync closes the retirement. One fsynced Delete per key made
// it 34.
func TestDeleteChunkedFsyncBudget(t *testing.T) {
	dir := t.TempDir()
	s := openTestWALStore(t, dir, WALStoreOptions{SyncWrites: true})
	commitBlob(t, s, "snap", 33, 1<<10)
	before := s.Syncs()
	if err := DeleteChunked(s, "snap"); err != nil {
		t.Fatal(err)
	}
	if got := s.Syncs() - before; got > 1 {
		t.Errorf("DeleteChunked of 33 chunks: %d fsyncs, want <= 1", got)
	} else {
		t.Logf("DeleteChunked of 33 chunks: %d fsyncs", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openTestWALStore(t, dir, WALStoreOptions{SyncWrites: true})
	defer func() { _ = s.Close() }()
	if kvs, err := s.Scan("snap"); err != nil || len(kvs) != 0 {
		t.Fatalf("after reopening: %d keys of the deleted blob left (%v)", len(kvs), err)
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
// 33-chunk one: the seven stale chunks are dropped, the manifest is staged
// after every new chunk and every prune, and one Sync closes the commit. No
// barrier sits in between: staged operations become stable in staging order, so
// a surviving manifest has its chunks and prunes behind it (the sweeps below
// cut the power at every point to check that).
func TestWriteChunkedCommitPrunesBeforeManifest(t *testing.T) {
	s := &opLog{MemStore: NewMem()}
	commitBlob(t, s, "snap", 40, 64)
	s.ops = nil
	commitBlob(t, s, "snap", 33, 64)

	manifestAt, chunks, pruned, syncs := -1, 0, 0, 0
	for i, op := range s.ops {
		switch {
		case op == "set "+ManifestKey("snap"):
			manifestAt = i
		case op == "sync":
			syncs++
		case manifestAt >= 0:
			t.Fatalf("%q staged after the manifest", op)
		case strings.HasPrefix(op, "delete "):
			pruned++
		default:
			chunks++
		}
	}
	if manifestAt < 0 {
		t.Fatal("no manifest written")
	}
	if chunks != 33 || pruned != 7 {
		t.Fatalf("staged %d chunks and pruned %d before the manifest, want 33 and 7", chunks, pruned)
	}
	if syncs != 1 || s.ops[len(s.ops)-1] != "sync" {
		t.Fatalf("a commit under 1 MiB must end in its one barrier: %v", s.ops[manifestAt:])
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

// fuseStore is a disk with a fuse: it lets left more staged operations
// through and then cuts the power — that prefix is stable, whatever was staged
// behind it is gone, and every later call fails.
type fuseStore struct {
	*MemStore
	left int
}

func (f *fuseStore) stage(do func() error) error {
	if err := do(); err != nil {
		return err
	}
	if f.left--; f.left == 0 {
		_ = f.MemStore.Sync()
		f.MemStore.PowerLoss()
	}
	return nil
}

func (f *fuseStore) SetBuffered(key string, value []byte) error {
	return f.stage(func() error { return f.MemStore.SetBuffered(key, value) })
}

func (f *fuseStore) DeleteBuffered(key string) error {
	return f.stage(func() error { return f.MemStore.DeleteBuffered(key) })
}

// checkOldOrNew asserts what a crash in the middle of replacing the 40-chunk
// blob under "snap" with a 33-chunk one may leave: the old manifest, whose
// chunks read back as the old bytes or are reported missing (overwritten or
// pruned: incomplete, so a fetch repairs it), or the complete new blob with no
// stale chunk beyond its end — never a new manifest with a chunk missing or
// left over from the old blob.
func checkOldOrNew(t *testing.T, s Store, cut string) {
	t.Helper()
	m, chunks, complete, err := ReadChunked(s, "snap")
	if err != nil {
		t.Fatalf("%s: %v", cut, err)
	}
	switch m.Base {
	case 40:
		for i, c := range chunks {
			if c != nil && !bytes.Equal(c, bytes.Repeat([]byte{40}, 64)) {
				t.Fatalf("%s: old manifest, chunk %d reads %v", cut, i, c[:4])
			}
		}
	case 33:
		if !complete || m.Chunks() != 33 {
			t.Fatalf("%s: new manifest with chunks missing", cut)
		}
		if kvs, _ := s.Scan("snap/c/"); len(kvs) != 33 {
			t.Fatalf("%s: new manifest beside %d chunk keys, want 33", cut, len(kvs))
		}
	default:
		t.Fatalf("%s: manifest base %d, want the old blob's 40 or the new one's 33", cut, m.Base)
	}
}

// TestWriteChunkedCommitPowerCutSweep cuts the power behind every prefix of a
// replacing commit's staged operations (33 chunks, 7 prunes, the manifest).
func TestWriteChunkedCommitPowerCutSweep(t *testing.T) {
	const staged = 33 + 7 + 1
	for k := 0; k <= staged; k++ {
		f := &fuseStore{MemStore: NewMem(), left: -1}
		commitBlob(t, f, "snap", 40, 64)
		f.left = k
		if k == 0 {
			f.PowerLoss()
		}
		err := WriteChunkedCommit(f, "snap", ChunkManifest{Format: 2, Base: 33, CRCs: crcs(33, 64)},
			func(int) []byte { return bytes.Repeat([]byte{33}, 64) })
		if err == nil {
			t.Fatalf("cut after %d of %d staged operations: the commit reported success", k, staged)
		}
		f.Reopen()
		checkOldOrNew(t, f, fmt.Sprintf("cut after %d staged operations", k))
	}
}

// TestDeleteChunkedPowerCutSweep cuts the power behind every prefix of a
// retirement's staged deletes (33 chunks, then the manifest): each cut leaves
// the blob whole, incomplete or gone — never a manifest-less chunk.
func TestDeleteChunkedPowerCutSweep(t *testing.T) {
	const staged = 33 + 1
	for k := 0; k <= staged; k++ {
		f := &fuseStore{MemStore: NewMem(), left: -1}
		commitBlob(t, f, "snap", 33, 64)
		f.left = k
		if k == 0 {
			f.PowerLoss()
		}
		if err := DeleteChunked(f, "snap"); err == nil {
			t.Fatalf("cut after %d of %d staged deletes: the retirement reported success", k, staged)
		}
		f.Reopen()
		m, _, complete, err := ReadChunked(f, "snap")
		if err != nil {
			t.Fatalf("cut after %d: %v", k, err)
		}
		chunkKeys, _ := f.Scan("snap/c/")
		switch {
		case m.Chunks() == 0 && len(chunkKeys) != 0:
			t.Fatalf("cut after %d: the manifest is gone but %d chunks are left", k, len(chunkKeys))
		case m.Chunks() == 0:
			if k != staged {
				t.Fatalf("cut after %d of %d staged deletes: the blob is gone", k, staged)
			}
		case complete != (k == 0):
			t.Fatalf("cut after %d: manifest beside %d chunks, complete=%v", k, len(chunkKeys), complete)
		}
	}
}

// TestWriteChunkedCommitTornWALSweep truncates the WAL segment holding a
// replacing commit at every record boundary and inside every record — what a
// crash mid-write leaves on disk — and recovers a store from each.
func TestWriteChunkedCommitTornWALSweep(t *testing.T) {
	dir := t.TempDir()
	s := openTestWALStore(t, dir, WALStoreOptions{SyncWrites: true})
	commitBlob(t, s, "snap", 40, 64)
	segs, err := filepath.Glob(filepath.Join(dir, walSegPrefix+"*"+walSegSuffix))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (%v), want one", segs, err)
	}
	st, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	commitBlob(t, s, "snap", 33, 64)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	var cuts []int
	for pos := int(st.Size()); ; {
		cuts = append(cuts, pos)
		if pos == len(data) {
			break
		}
		_, adv, ok := decodeWALRecord(data[pos:])
		if !ok {
			t.Fatalf("no intact record at offset %d", pos)
		}
		cuts = append(cuts, pos+adv/2)
		pos += adv
	}
	if records := len(cuts) / 2; records != 33+7+1 {
		t.Fatalf("the commit logged %d records, want 41", records)
	}
	for _, cut := range cuts {
		torn := t.TempDir()
		if err := os.WriteFile(filepath.Join(torn, filepath.Base(segs[0])), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r := openTestWALStore(t, torn, WALStoreOptions{})
		checkOldOrNew(t, r, fmt.Sprintf("segment cut at byte %d", cut))
		_ = r.Close()
	}
}

func crcs(n, size int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = ChunkCRC(bytes.Repeat([]byte{byte(n)}, size))
	}
	return out
}
