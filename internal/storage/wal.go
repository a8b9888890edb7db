package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// WAL is a segmented, append-only write-ahead log with group commit.
//
// Records are opaque byte strings framed as
//
//	length (uvarint) | crc32c of payload (4 bytes LE) | payload
//
// and assigned monotonically increasing log sequence numbers (LSNs) starting
// at 1. The log is split into segment files named wal-<firstLSN>.seg; the
// active segment rolls at the first barrier after it exceeds SegmentBytes,
// and sealed segments can be dropped wholesale by Compact once their records
// are covered by a checkpoint upstream.
//
// Durability uses classic group commit: Append only buffers; Sync(lsn) blocks
// until every record up to lsn is fsynced. One goroutine performs the fsync
// at a time, and every record appended while a sync is in flight rides the
// next one — so N concurrent writers cost ~1 fsync, not N. This is the
// property that makes a synchronous Paxos acceptor hot path scale with
// writer concurrency instead of with disk sync latency.
//
// Recovery replays segments in LSN order. A torn tail — a crash mid-append —
// shows up as a truncated or CRC-failing record at the end of the last
// segment; replay stops there and the tail is truncated so the next append
// continues from the last intact record. A bad record anywhere else is real
// corruption and surfaces as an error.
type WAL struct {
	dir  string
	opts WALOptions

	// mu guards the append path: the active segment, the buffer and LSN
	// assignment. It is never held across a log fsync, only across the
	// once-per-segment directory fsync (syncNewSegLocked).
	mu     sync.Mutex
	f      *os.File
	buf    []byte // appended but not yet written to the OS
	base   uint64 // LSN of the first record in the active segment
	size   int64  // bytes written to the active segment (incl. buffered)
	next   uint64 // next LSN to assign
	sealed []segmentInfo
	closed bool
	// newSeg is set while the active segment's directory entry may not be
	// durable yet: creating a segment costs no fsync, and the first barrier
	// that covers the segment — Sync or Close — fsyncs the directory along
	// with the file.
	newSeg bool

	// commitMu guards the group-commit state. Ordering: commitMu is taken
	// without mu; the flush step inside a commit takes mu briefly.
	commitMu   sync.Mutex
	commitCv   *sync.Cond
	durable    uint64 // every record with LSN <= durable is fsynced
	committing bool
	commitErr  error // sticky: a failed fsync poisons the log

	syncs   atomic.Int64
	appends atomic.Int64
}

// segmentInfo describes one sealed (read-only) segment file.
type segmentInfo struct {
	base uint64 // LSN of its first record
	last uint64 // LSN of its last record
	path string
}

// WALOptions configures a WAL.
type WALOptions struct {
	// SegmentBytes is the size past which the next barrier seals the active
	// segment and starts a new one. Default 4 MiB.
	SegmentBytes int64
}

func (o WALOptions) withDefaults() WALOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

const (
	walSegPrefix = "wal-"
	walSegSuffix = ".seg"
	// walMagic opens every segment so foreign files are rejected cheaply.
	walMagic = "RSMWAL01"
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// OpenWAL opens (creating if needed) the log rooted at dir and replays every
// intact record into replay, in LSN order. A torn tail on the last segment is
// truncated. replay may be nil when the caller only appends.
func OpenWAL(dir string, opts WALOptions, replay func(lsn uint64, payload []byte) error) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open wal %s: %w", dir, err)
	}
	w := &WAL{dir: dir, opts: opts.withDefaults(), next: 1}
	w.commitCv = sync.NewCond(&w.commitMu)

	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for i, base := range segs {
		lastSeg := i == len(segs)-1
		if i == 0 {
			// Compaction may have dropped the oldest segments, so the log
			// can legitimately start at any LSN.
			w.next = base
		} else if base != w.next {
			return nil, fmt.Errorf("storage: wal segment gap: have %d, expected first LSN %d", base, w.next)
		}
		n, err := w.replaySegment(segPath(dir, base), lastSeg, replay)
		if err != nil {
			return nil, err
		}
		w.next = base + n
		if !lastSeg {
			w.sealed = append(w.sealed, segmentInfo{base: base, last: base + n - 1, path: segPath(dir, base)})
		} else {
			w.base = base
		}
	}
	if len(segs) == 0 {
		w.base = w.next
		if err := w.openSegment(w.base); err != nil {
			return nil, err
		}
	} else {
		f, err := os.OpenFile(segPath(dir, w.base), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("storage: reopen wal segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("storage: stat wal segment: %w", err)
		}
		w.f = f
		w.size = st.Size()
		// The process that created it may have died before any barrier.
		w.newSeg = true
	}
	// Everything replayed from disk is durable by definition.
	w.durable = w.next - 1
	return w, nil
}

// listSegments returns the base LSNs of all segment files in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: list wal: %w", err)
	}
	var bases []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, walSegPrefix) || !strings.HasSuffix(name, walSegSuffix) {
			continue
		}
		base, err := strconv.ParseUint(name[len(walSegPrefix):len(name)-len(walSegSuffix)], 16, 64)
		if err != nil {
			continue // foreign file
		}
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases, nil
}

func segPath(dir string, base uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", walSegPrefix, base, walSegSuffix))
}

// replaySegment feeds every intact record of one segment to replay and
// returns the record count. On the last segment a torn tail is truncated
// away; anywhere else it is corruption.
func (w *WAL) replaySegment(path string, lastSeg bool, replay func(lsn uint64, payload []byte) error) (uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("storage: read wal segment: %w", err)
	}
	base, err := strconv.ParseUint(filepath.Base(path)[len(walSegPrefix):len(filepath.Base(path))-len(walSegSuffix)], 16, 64)
	if err != nil {
		return 0, fmt.Errorf("storage: wal segment name %s: %w", path, err)
	}
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		if lastSeg && len(data) < len(walMagic) {
			// Crash before the header finished: an empty segment.
			if err := truncateSegment(path, 0); err != nil {
				return 0, err
			}
			return 0, nil
		}
		return 0, fmt.Errorf("storage: wal segment %s: bad magic", path)
	}
	pos := len(walMagic)
	var n uint64
	for pos < len(data) {
		payload, adv, ok := decodeWALRecord(data[pos:])
		if !ok {
			if !lastSeg {
				return n, fmt.Errorf("storage: wal segment %s: corrupt record %d at offset %d", path, base+n, pos)
			}
			// Torn tail: drop it so appends resume from the intact prefix.
			if err := truncateSegment(path, int64(pos)); err != nil {
				return n, err
			}
			return n, nil
		}
		if replay != nil {
			if err := replay(base+n, payload); err != nil {
				return n, fmt.Errorf("storage: wal replay record %d: %w", base+n, err)
			}
		}
		n++
		pos += adv
	}
	return n, nil
}

// decodeWALRecord parses one framed record from the front of buf. ok is
// false when buf holds no intact record (truncated frame or CRC mismatch).
func decodeWALRecord(buf []byte) (payload []byte, advance int, ok bool) {
	length, vn := binary.Uvarint(buf)
	if vn <= 0 {
		return nil, 0, false
	}
	rest := uint64(len(buf) - vn)
	if rest < 4 || length > rest-4 {
		return nil, 0, false
	}
	crc := binary.LittleEndian.Uint32(buf[vn : vn+4])
	payload = buf[vn+4 : vn+4+int(length)]
	if crc32.Checksum(payload, walCRC) != crc {
		return nil, 0, false
	}
	return payload, vn + 4 + int(length), true
}

// appendWALRecord frames payload onto buf.
func appendWALRecord(buf, payload []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, walCRC))
	return append(buf, payload...)
}

func truncateSegment(path string, size int64) error {
	if err := os.Truncate(path, size); err != nil {
		return fmt.Errorf("storage: truncate wal tail: %w", err)
	}
	if size == 0 {
		// Rewrite the header so the segment stays parseable.
		f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("storage: rewrite wal header: %w", err)
		}
		_, werr := f.WriteString(walMagic)
		cerr := f.Close()
		if werr != nil {
			return fmt.Errorf("storage: rewrite wal header: %w", werr)
		}
		if cerr != nil {
			return fmt.Errorf("storage: rewrite wal header: %w", cerr)
		}
	}
	return nil
}

// openSegment creates the segment file for base and makes it active, its
// directory entry left to the next barrier (newSeg). Called with mu held (or
// before the WAL is shared).
func (w *WAL) openSegment(base uint64) error {
	f, err := os.OpenFile(segPath(w.dir, base), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: create wal segment: %w", err)
	}
	if _, err := f.WriteString(walMagic); err != nil {
		_ = f.Close()
		return fmt.Errorf("storage: write wal header: %w", err)
	}
	w.f = f
	w.base = base
	w.newSeg = true
	w.size = int64(len(walMagic))
	return nil
}

// syncNewSegLocked makes the active segment's directory entry durable if it
// may not be yet. Called with mu held.
func (w *WAL) syncNewSegLocked() error {
	if !w.newSeg {
		return nil
	}
	if err := syncDir(w.dir); err != nil {
		return err
	}
	w.newSeg = false
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: sync wal dir: %w", err)
	}
	defer func() { _ = d.Close() }()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("storage: sync wal dir: %w", err)
	}
	return nil
}

// Append buffers one record and returns its LSN. The record is not durable
// until a Sync covering the LSN returns.
func (w *WAL) Append(payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrStoreClosed
	}
	before := len(w.buf)
	w.buf = appendWALRecord(w.buf, payload)
	w.size += int64(len(w.buf) - before)
	lsn := w.next
	w.next++
	w.appends.Add(1)
	return lsn, nil
}

// rollLocked seals the active segment, whose records through last the
// caller has just fsynced, and starts a new one at last+1 with whatever was
// appended since: those records are still in the buffer. Sealing at a barrier
// keeps every sealed segment complete on disk before its successor exists, so
// a crash leaves a torn tail only on the last segment, where replay expects
// one; and a segment full of staged writes waits on no disk to roll. Called
// with mu held by the committing Sync, the only flusher while it runs.
func (w *WAL) rollLocked(last uint64) error {
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("storage: seal wal segment: %w", err)
	}
	w.sealed = append(w.sealed, segmentInfo{base: w.base, last: last, path: segPath(w.dir, w.base)})
	if err := w.openSegment(last + 1); err != nil {
		return err
	}
	w.size += int64(len(w.buf))
	return nil
}

// flushLocked writes the append buffer to the OS. Called with mu held.
func (w *WAL) flushLocked() error {
	if len(w.buf) == 0 {
		return nil
	}
	if _, err := w.f.Write(w.buf); err != nil {
		return fmt.Errorf("storage: write wal: %w", err)
	}
	w.buf = w.buf[:0]
	return nil
}

// Sync blocks until every record with LSN <= lsn is durable. Concurrent
// callers coalesce: one fsync covers every record appended before it starts,
// and callers that arrive while a sync is in flight ride the next one.
func (w *WAL) Sync(lsn uint64) error {
	w.commitMu.Lock()
	for {
		if w.durable >= lsn {
			w.commitMu.Unlock()
			return nil
		}
		if w.commitErr != nil {
			err := w.commitErr
			w.commitMu.Unlock()
			return err
		}
		if !w.committing {
			break
		}
		w.commitCv.Wait()
	}
	w.committing = true
	w.commitMu.Unlock()

	// Flush everything appended so far to the OS, note the watermark, then
	// fsync WITHOUT holding mu so concurrent appends keep flowing into the
	// buffer and ride the next commit. A segment created since the last
	// barrier has its directory entry fsynced too, before the watermark moves,
	// and a segment grown past SegmentBytes is sealed (rollLocked).
	w.mu.Lock()
	var target uint64
	err := func() error {
		if w.closed {
			return ErrStoreClosed
		}
		if err := w.flushLocked(); err != nil {
			return err
		}
		target = w.next - 1
		return nil
	}()
	f, newSeg := w.f, w.newSeg
	w.mu.Unlock()
	if err == nil {
		// Close may close f while this fsync is in flight; it fsyncs the
		// file before closing it, so everything our flush wrote is already
		// durable and ErrClosed here is benign.
		if serr := f.Sync(); serr != nil && !errors.Is(serr, os.ErrClosed) {
			err = fmt.Errorf("storage: fsync wal: %w", serr)
		}
		w.syncs.Add(1)
	}
	if err == nil {
		w.mu.Lock()
		if newSeg {
			err = w.syncNewSegLocked()
		}
		// What our flush wrote is what the file holds: no one else flushes
		// while this commit runs, and Close marks the log closed.
		if err == nil && !w.closed && w.size-int64(len(w.buf)) >= w.opts.SegmentBytes {
			err = w.rollLocked(target)
		}
		w.mu.Unlock()
	}

	w.commitMu.Lock()
	w.committing = false
	if err != nil {
		if !w.isClosedErr(err) {
			w.commitErr = err
		} else if w.durable >= lsn {
			// A racing Close flushed and fsynced our record before we got
			// to it; the caller's durability requirement is met.
			err = nil
		}
	} else if target > w.durable {
		w.durable = target
	}
	w.commitCv.Broadcast()
	w.commitMu.Unlock()
	return err
}

func (w *WAL) isClosedErr(err error) bool {
	return err == ErrStoreClosed
}

// LastLSN returns the highest assigned LSN (0 when the log is empty).
func (w *WAL) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.next - 1
}

// DurableLSN returns the highest LSN known fsynced.
func (w *WAL) DurableLSN() uint64 {
	w.commitMu.Lock()
	defer w.commitMu.Unlock()
	return w.durable
}

// Syncs returns the number of group commits that reached the disk, one log
// fsync each (the directory fsync a new segment's first barrier adds rides
// uncounted) — the group-commit win shows up as Syncs ≪ Appends under
// concurrent synchronous writers.
func (w *WAL) Syncs() int64 { return w.syncs.Load() }

// Appends returns the number of records appended.
func (w *WAL) Appends() int64 { return w.appends.Load() }

// SealedBytes returns the total size of sealed (compactable) segments.
func (w *WAL) SealedBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var total int64
	for _, s := range w.sealed {
		if st, err := os.Stat(s.path); err == nil {
			total += st.Size()
		}
	}
	return total
}

// Compact removes sealed segments whose every record has LSN <= throughLSN —
// records a checkpoint already covers. The active segment is never removed.
func (w *WAL) Compact(throughLSN uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrStoreClosed
	}
	kept := w.sealed[:0]
	for _, s := range w.sealed {
		if s.last <= throughLSN {
			if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("storage: compact wal: %w", err)
			}
			continue
		}
		kept = append(kept, s)
	}
	w.sealed = kept
	return syncDir(w.dir)
}

// Close flushes, fsyncs and closes the log. Further operations fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	err := w.flushLocked()
	if err == nil {
		err = w.f.Sync()
	}
	if err == nil {
		err = w.syncNewSegLocked()
	}
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	w.closed = true
	last := w.next - 1
	w.mu.Unlock()
	// Everything flushed by the close is durable; waiters for it succeed,
	// waiters for anything later get ErrStoreClosed.
	w.commitMu.Lock()
	if err == nil && last > w.durable {
		w.durable = last
	}
	if w.commitErr == nil {
		w.commitErr = ErrStoreClosed
	}
	w.commitCv.Broadcast()
	w.commitMu.Unlock()
	if err != nil {
		return fmt.Errorf("storage: close wal: %w", err)
	}
	return nil
}

var _ io.Closer = (*WAL)(nil)
