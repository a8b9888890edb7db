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

// collectReplay returns a replay func appending (lsn, payload) pairs.
func collectReplay(lsns *[]uint64, payloads *[][]byte) func(uint64, []byte) error {
	return func(lsn uint64, payload []byte) error {
		*lsns = append(*lsns, lsn)
		cp := make([]byte, len(payload))
		copy(cp, payload)
		*payloads = append(*payloads, cp)
		return nil
	}
}

func TestWALAppendSyncReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.segmentBytes != 4<<20 {
		t.Fatalf("OpenWAL rolls segments past %d bytes, want 4 MiB", w.segmentBytes)
	}
	var want [][]byte
	var last uint64
	for i := 0; i < 50; i++ {
		p := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, p)
		last, err = w.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if last != uint64(i+1) {
			t.Fatalf("lsn %d for record %d", last, i)
		}
	}
	if err := w.Sync(last); err != nil {
		t.Fatal(err)
	}
	if got := w.DurableLSN(); got != last {
		t.Fatalf("durable %d, want %d", got, last)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var lsns []uint64
	var got [][]byte
	w2, err := OpenWAL(dir, collectReplay(&lsns, &got))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w2.Close() }()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if lsns[i] != uint64(i+1) || !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: lsn %d payload %q", i, lsns[i], got[i])
		}
	}
	if w2.LastLSN() != last {
		t.Fatalf("reopened last LSN %d, want %d", w2.LastLSN(), last)
	}
}

// TestWALTornTail simulates a crash mid-append by truncating the segment at
// every possible byte offset. For each cut the reopen must (a) replay exactly
// the records whose frames lie wholly before the cut, in order, and (b) leave
// the log appendable.
func TestWALTornTail(t *testing.T) {
	// Build a reference log once to learn the on-disk layout.
	refDir := t.TempDir()
	w, err := OpenWAL(refDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	var last uint64
	for i := 0; i < 12; i++ {
		p := []byte(fmt.Sprintf("payload-%d-%s", i, strings.Repeat("x", i)))
		payloads = append(payloads, p)
		if last, err = w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(last); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segName := fmt.Sprintf("%s%016x%s", walSegPrefix, 1, walSegSuffix)
	full, err := os.ReadFile(filepath.Join(refDir, segName))
	if err != nil {
		t.Fatal(err)
	}
	// Frame end offsets: ends[i] is the file offset just past record i.
	ends := []int{len(walMagic)}
	for _, p := range payloads {
		frame := appendWALRecord(nil, p)
		ends = append(ends, ends[len(ends)-1]+len(frame))
	}
	if ends[len(ends)-1] != len(full) {
		t.Fatalf("layout mismatch: computed %d bytes, file has %d", ends[len(ends)-1], len(full))
	}

	for cut := len(walMagic); cut < len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantN := 0
		for wantN+1 < len(ends) && ends[wantN+1] <= cut {
			wantN++
		}
		var lsns []uint64
		var got [][]byte
		w2, err := OpenWAL(dir, collectReplay(&lsns, &got))
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if len(got) != wantN {
			t.Fatalf("cut=%d: replayed %d records, want %d", cut, len(got), wantN)
		}
		for i := 0; i < wantN; i++ {
			if lsns[i] != uint64(i+1) || !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("cut=%d: record %d corrupted: lsn %d payload %q", cut, i, lsns[i], got[i])
			}
		}
		// The log must accept appends after tail truncation.
		lsn, err := w2.Append([]byte("after-crash"))
		if err != nil {
			t.Fatalf("cut=%d: append after reopen: %v", cut, err)
		}
		if lsn != uint64(wantN+1) {
			t.Fatalf("cut=%d: post-crash lsn %d, want %d", cut, lsn, wantN+1)
		}
		if err := w2.Sync(lsn); err != nil {
			t.Fatalf("cut=%d: sync after reopen: %v", cut, err)
		}
		if err := w2.Close(); err != nil {
			t.Fatalf("cut=%d: close: %v", cut, err)
		}
	}
}

func TestWALGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				lsn, err := w.Append([]byte(fmt.Sprintf("w%d-%d", g, i)))
				if err != nil {
					errs <- err
					return
				}
				if err := w.Sync(lsn); err != nil {
					errs <- err
					return
				}
				if w.DurableLSN() < lsn {
					errs <- fmt.Errorf("sync returned with durable %d < lsn %d", w.DurableLSN(), lsn)
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
	total := int64(writers * perWriter)
	if w.Appends() != total {
		t.Fatalf("appends %d, want %d", w.Appends(), total)
	}
	if w.DurableLSN() != uint64(total) {
		t.Fatalf("durable %d, want %d", w.DurableLSN(), total)
	}
	if w.Syncs() > total {
		t.Fatalf("syncs %d exceeds appends %d", w.Syncs(), total)
	}
	t.Logf("group commit: %d appends in %d fsyncs", total, w.Syncs())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var lsns []uint64
	var got [][]byte
	w2, err := OpenWAL(dir, collectReplay(&lsns, &got))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w2.Close() }()
	if int64(len(got)) != total {
		t.Fatalf("replayed %d records, want %d", len(got), total)
	}
}

// TestWALBatchedSyncCoalesces checks the deterministic half of group commit:
// one Sync covers every record appended before it.
func TestWALBatchedSyncCoalesces(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.Close() }()
	var last uint64
	for i := 0; i < 100; i++ {
		if last, err = w.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	before := w.Syncs()
	if err := w.Sync(last); err != nil {
		t.Fatal(err)
	}
	if got := w.Syncs() - before; got != 1 {
		t.Fatalf("100 appends took %d fsyncs, want 1", got)
	}
	// All covered: syncing an older LSN is free.
	if err := w.Sync(1); err != nil {
		t.Fatal(err)
	}
	if got := w.Syncs() - before; got != 1 {
		t.Fatalf("redundant sync hit the disk (%d fsyncs)", got)
	}
}

func TestWALSegmentRollAndCompact(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 30; i++ {
		if last, err = w.Append([]byte(fmt.Sprintf("record-%02d", i))); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(last); err != nil { // a segment rolls at a barrier
			t.Fatal(err)
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected >=3 segments at 64B roll size, got %d", len(segs))
	}
	if w.SealedBytes() == 0 {
		t.Fatal("sealed bytes should be nonzero")
	}

	// Compact through the middle: only segments wholly <= watermark go.
	mid := uint64(15)
	if err := w.Compact(mid); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var lsns []uint64
	var got [][]byte
	w2, err := openWAL(dir, 64, collectReplay(&lsns, &got))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w2.Close() }()
	if len(lsns) == 0 {
		t.Fatal("no records survived compaction")
	}
	// Everything above the watermark must survive, with correct LSNs.
	if lsns[0] > mid+1 {
		t.Fatalf("first surviving LSN %d leaves a gap above watermark %d", lsns[0], mid)
	}
	if lsns[len(lsns)-1] != last {
		t.Fatalf("last surviving LSN %d, want %d", lsns[len(lsns)-1], last)
	}
	for i, lsn := range lsns {
		want := fmt.Sprintf("record-%02d", lsn-1)
		if string(got[i]) != want {
			t.Fatalf("lsn %d: payload %q, want %q", lsn, got[i], want)
		}
	}
	if w2.LastLSN() != last {
		t.Fatalf("reopened last LSN %d, want %d", w2.LastLSN(), last)
	}
}

func TestWALCorruptionInSealedSegmentFails(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 30; i++ {
		if last, err = w.Append([]byte(fmt.Sprintf("record-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(last); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 2 {
		t.Fatalf("need >=2 segments, got %d", len(segs))
	}
	// Flip a payload byte in the FIRST (sealed) segment: that is corruption,
	// not a torn tail, and open must refuse rather than silently drop data.
	path := segPath(dir, segs[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(dir, nil); err == nil {
		t.Fatal("open accepted a corrupt sealed segment")
	}
}

func TestWALCloseMakesTailDurable(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil { // no Sync: Close must flush+fsync
		t.Fatal(err)
	}
	if _, err := w.Append(nil); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := w.Sync(99); err == nil {
		t.Fatal("sync of unappended lsn after close succeeded")
	}
	var lsns []uint64
	var got [][]byte
	w2, err := OpenWAL(dir, collectReplay(&lsns, &got))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w2.Close() }()
	if len(got) != 10 {
		t.Fatalf("replayed %d records, want 10", len(got))
	}
}
