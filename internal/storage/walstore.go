package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/types"
)

// WALStore is a Store whose durability comes from a group-commit WAL. Every
// Set/Delete appends a mutation record to the log;
// the full key/value state is materialized in memory and served from there,
// so reads never touch disk.
//
// This is the backend for the Paxos acceptor hot path: writes are staged
// (SetBuffered) and each Sync blocks until every record before it is
// fsynced, but concurrent Syncs share fsyncs through the WAL's group commit,
// so durable throughput scales with concurrency instead of being capped at
// 1/fsync-latency.
//
// Recovery loads the newest checkpoint (a full state snapshot) and replays
// the WAL suffix beyond it, truncating a torn tail at the first bad CRC.
// Compaction writes a fresh checkpoint and drops every sealed segment the
// checkpoint covers; it runs automatically once the sealed backlog exceeds
// compactBytes, and on demand via Compact.
type WALStore struct {
	dir  string
	opts WALStoreOptions

	mu         sync.Mutex
	state      map[string][]byte
	wal        *WAL
	ckptLSN    uint64 // records <= ckptLSN are covered by the checkpoint
	compacting bool
	closed     bool
}

var _ Stager = (*WALStore)(nil)

// WALStoreOptions configures a WALStore.
type WALStoreOptions struct {
	// SyncWrites makes every Set/Delete wait for its record to be fsynced
	// (group-committed) before returning. Default false: records are
	// buffered and reach disk on Sync/Close, like an OS page cache. Nothing
	// in the program selects it — every layer above this package stages
	// and takes explicit barriers (Stager), which ignore it — and it stays
	// only because the benchmark module (bench/) opens its stores with it.
	SyncWrites bool

	// segmentBytes is the size past which the next barrier rolls the WAL
	// segment. Default walSegmentBytes (4 MiB).
	segmentBytes int64
	// compactBytes triggers automatic compaction once sealed segments
	// exceed this many bytes. Default walCompactBytes (16 MiB); negative
	// disables.
	compactBytes int64
}

// walCompactBytes is the sealed-segment backlog past which a WALStore
// compacts on its own.
const walCompactBytes = 16 << 20

func (o WALStoreOptions) withDefaults() WALStoreOptions {
	if o.segmentBytes <= 0 {
		o.segmentBytes = walSegmentBytes
	}
	if o.compactBytes == 0 {
		o.compactBytes = walCompactBytes
	}
	return o
}

// Mutation record ops. Values start at 1 so zeroed corruption is invalid.
const (
	walOpSet    = 1
	walOpDelete = 2
)

const (
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"
	ckptMagic  = "RSMCKP01"
)

// OpenWALStore opens (creating if needed) a WAL-backed store rooted at dir.
func OpenWALStore(dir string, opts WALStoreOptions) (*WALStore, error) {
	s := &WALStore{
		dir:   dir,
		opts:  opts.withDefaults(),
		state: make(map[string][]byte),
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open walstore %s: %w", dir, err)
	}
	ckptLSN, err := s.loadNewestCheckpoint()
	if err != nil {
		return nil, err
	}
	s.ckptLSN = ckptLSN
	wal, err := openWAL(dir, s.opts.segmentBytes, func(lsn uint64, payload []byte) error {
		if lsn <= ckptLSN {
			return nil // already inside the checkpoint
		}
		return s.applyRecord(payload)
	})
	if err != nil {
		return nil, err
	}
	s.wal = wal
	return s, nil
}

// applyRecord decodes one mutation record into the in-memory state. The value
// is copied out (BytesField): payload is a window of replay's segment buffer,
// which a view would pin — a whole segment per surviving value — and which the
// WAL is free to reuse.
func (s *WALStore) applyRecord(payload []byte) error {
	r := types.NewReader(payload)
	op := r.Byte()
	key := r.String()
	switch op {
	case walOpSet:
		val := r.BytesField()
		if err := r.Err(); err != nil {
			return err
		}
		s.state[key] = val
	case walOpDelete:
		if err := r.Err(); err != nil {
			return err
		}
		delete(s.state, key)
	default:
		return fmt.Errorf("%w: wal mutation op %d", types.ErrCodec, op)
	}
	return nil
}

// recWriterPool recycles the scratch buffer used to encode one mutation
// record. WAL.Append copies the record into its own buffer before returning,
// so the writer can go straight back into the pool.
var recWriterPool = sync.Pool{
	New: func() any { return types.NewWriter(256) },
}

// append encodes and logs one mutation, returning its LSN.
func (s *WALStore) append(op byte, key string, value []byte) (uint64, error) {
	w := recWriterPool.Get().(*types.Writer)
	w.Reset()
	w.Byte(op)
	w.String(key)
	if op == walOpSet {
		w.BytesField(value)
	}
	lsn, err := s.wal.Append(w.Bytes())
	recWriterPool.Put(w)
	return lsn, err
}

// Set implements Store. The record appended to the log buffer is the disk's
// copy; the served state keeps value itself.
func (s *WALStore) Set(key string, value []byte) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrStoreClosed
	}
	lsn, err := s.append(walOpSet, key, value)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.state[key] = value
	s.mu.Unlock()
	if s.opts.SyncWrites {
		if err := s.wal.Sync(lsn); err != nil {
			return err
		}
	}
	s.maybeCompact()
	return nil
}

// SetBuffered implements Stager: the record is appended and visible
// immediately, but the group-commit wait is skipped even with SyncWrites on.
// The caller's next Sync is the durability barrier — the Paxos event loop
// uses this to share one fsync across every write of a burst.
func (s *WALStore) SetBuffered(key string, value []byte) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrStoreClosed
	}
	if _, err := s.append(walOpSet, key, value); err != nil {
		s.mu.Unlock()
		return err
	}
	s.state[key] = value
	s.mu.Unlock()
	s.maybeCompact()
	return nil
}

// Get implements Store.
func (s *WALStore) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrStoreClosed
	}
	v, ok := s.state[key]
	if !ok {
		return nil, false, nil
	}
	return clone(v), true, nil
}

// Delete implements Store: with SyncWrites on it waits for the record's
// fsync, like Set.
func (s *WALStore) Delete(key string) error {
	lsn, err := s.logDelete(key)
	if err != nil || lsn == 0 || !s.opts.SyncWrites {
		return err
	}
	return s.wal.Sync(lsn)
}

// DeleteBuffered implements Stager: the record is appended and the
// key gone at once, and the caller's next Sync is the durability barrier.
// Replay applies records in log order, which is the ordering the interface
// promises.
func (s *WALStore) DeleteBuffered(key string) error {
	_, err := s.logDelete(key)
	return err
}

// logDelete appends the delete record and drops key from the served state. It
// returns LSN 0 when the key was absent and nothing was logged.
func (s *WALStore) logDelete(key string) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrStoreClosed
	}
	if _, ok := s.state[key]; !ok {
		return 0, nil
	}
	lsn, err := s.append(walOpDelete, key, nil)
	if err != nil {
		return 0, err
	}
	delete(s.state, key)
	return lsn, nil
}

// Scan implements Store: all pairs with the key prefix, sorted by key.
func (s *WALStore) Scan(prefix string) ([]KV, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrStoreClosed
	}
	var out []KV
	for k, v := range s.state {
		if strings.HasPrefix(k, prefix) {
			out = append(out, KV{Key: k, Value: clone(v)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// Sync implements Store: everything appended so far becomes durable.
func (s *WALStore) Sync() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrStoreClosed
	}
	last := s.wal.LastLSN()
	s.mu.Unlock()
	if last == 0 {
		return nil
	}
	return s.wal.Sync(last)
}

// maybeCompact checkpoints and drops sealed segments once the backlog grows
// past compactBytes. At most one compaction runs at a time.
func (s *WALStore) maybeCompact() {
	if s.opts.compactBytes < 0 {
		return
	}
	s.mu.Lock()
	if s.closed || s.compacting || s.wal.SealedBytes() < s.opts.compactBytes {
		s.mu.Unlock()
		return
	}
	s.compacting = true
	s.mu.Unlock()
	_ = s.compact() // best effort; an error leaves segments for next time
	s.mu.Lock()
	s.compacting = false
	s.mu.Unlock()
}

// Compact writes a checkpoint of the current state and removes every sealed
// WAL segment it covers.
func (s *WALStore) Compact() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrStoreClosed
	}
	if s.compacting {
		s.mu.Unlock()
		return nil // one at a time; the running pass covers our records
	}
	s.compacting = true
	s.mu.Unlock()
	err := s.compact()
	s.mu.Lock()
	s.compacting = false
	s.mu.Unlock()
	return err
}

func (s *WALStore) compact() error {
	// Snapshot state and watermark under the lock; write files outside it.
	s.mu.Lock()
	lsn := s.wal.LastLSN()
	snap := make(map[string][]byte, len(s.state))
	for k, v := range s.state {
		snap[k] = v // values are never mutated in place; sharing is safe
	}
	s.mu.Unlock()

	// The checkpoint must only cover durable records: if the tail it
	// absorbed got lost in a crash, replay could not reconstruct it.
	if lsn > 0 {
		if err := s.wal.Sync(lsn); err != nil {
			return err
		}
	}
	if err := s.writeCheckpoint(lsn, snap); err != nil {
		return err
	}
	s.mu.Lock()
	if lsn > s.ckptLSN {
		s.ckptLSN = lsn
	}
	s.mu.Unlock()
	if err := s.wal.Compact(lsn); err != nil {
		return err
	}
	return s.dropStaleCheckpoints(lsn)
}

// writeCheckpoint persists a full-state snapshot covering records <= lsn,
// atomically (temp + fsync + rename + dir fsync) and CRC-protected.
//
// The body is streamed through a buffered writer with a running CRC rather
// than materialized: a checkpoint of an N-byte state costs O(record) extra
// memory, not O(N). The header's CRC field is written as a placeholder and
// patched with WriteAt once the body bytes (and their checksum) are known —
// safe because the file only becomes a checkpoint at the rename, after fsync.
func (s *WALStore) writeCheckpoint(lsn uint64, snap map[string][]byte) error {
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	tmp, err := os.CreateTemp(s.dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { _ = tmp.Close(); _ = os.Remove(tmpName) }

	var hdr []byte
	hdr = append(hdr, ckptMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, 0) // CRC placeholder, patched below
	if _, err := tmp.Write(hdr); err != nil {
		cleanup()
		return fmt.Errorf("storage: checkpoint: %w", err)
	}

	crc := crc32.New(walCRC)
	bw := bufio.NewWriterSize(io.MultiWriter(tmp, crc), 64<<10)
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	writeField := func(b []byte) error {
		if err := putUvarint(uint64(len(b))); err != nil {
			return err
		}
		_, err := bw.Write(b)
		return err
	}
	if err := putUvarint(uint64(len(keys))); err != nil {
		cleanup()
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	for _, k := range keys {
		if err := writeField([]byte(k)); err != nil {
			cleanup()
			return fmt.Errorf("storage: checkpoint: %w", err)
		}
		if err := writeField(snap[k]); err != nil {
			cleanup()
			return fmt.Errorf("storage: checkpoint: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		cleanup()
		return fmt.Errorf("storage: checkpoint: %w", err)
	}

	binary.LittleEndian.PutUint32(scratch[:4], crc.Sum32())
	if _, err := tmp.WriteAt(scratch[:4], int64(len(ckptMagic))); err != nil {
		cleanup()
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, s.ckptPath(lsn)); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	return syncDir(s.dir)
}

func (s *WALStore) ckptPath(lsn uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%016x%s", ckptPrefix, lsn, ckptSuffix))
}

// listCheckpoints returns checkpoint LSNs in dir, ascending.
func listCheckpoints(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: list checkpoints: %w", err)
	}
	var lsns []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
			continue
		}
		lsn, err := strconv.ParseUint(name[len(ckptPrefix):len(name)-len(ckptSuffix)], 16, 64)
		if err != nil {
			continue
		}
		lsns = append(lsns, lsn)
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })
	return lsns, nil
}

// loadNewestCheckpoint restores state from the newest intact checkpoint and
// returns the LSN it covers (0 when starting empty). A corrupt newest
// checkpoint (crash mid-write survived the rename somehow) falls back to the
// next older one.
func (s *WALStore) loadNewestCheckpoint() (uint64, error) {
	lsns, err := listCheckpoints(s.dir)
	if err != nil {
		return 0, err
	}
	for i := len(lsns) - 1; i >= 0; i-- {
		state, err := readCheckpoint(s.ckptPath(lsns[i]))
		if err != nil {
			continue // corrupt; try an older one
		}
		s.state = state
		return lsns[i], nil
	}
	return 0, nil
}

func readCheckpoint(path string) (map[string][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(ckptMagic)+4 || string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("%w: checkpoint header", types.ErrCodec)
	}
	crc := binary.LittleEndian.Uint32(data[len(ckptMagic) : len(ckptMagic)+4])
	body := data[len(ckptMagic)+4:]
	if crc32.Checksum(body, walCRC) != crc {
		return nil, fmt.Errorf("%w: checkpoint crc", types.ErrCodec)
	}
	r := types.NewReader(body)
	n := r.Uvarint()
	if r.Err() == nil && n > uint64(r.Remaining()) {
		return nil, fmt.Errorf("%w: checkpoint entry count %d", types.ErrCodec, n)
	}
	state := make(map[string][]byte, n)
	for i := uint64(0); i < n; i++ {
		k := r.String()
		v := r.BytesField()
		if r.Err() != nil {
			break
		}
		state[k] = v
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return state, nil
}

// dropStaleCheckpoints removes checkpoints older than the one at keepLSN.
func (s *WALStore) dropStaleCheckpoints(keepLSN uint64) error {
	lsns, err := listCheckpoints(s.dir)
	if err != nil {
		return err
	}
	for _, lsn := range lsns {
		if lsn < keepLSN {
			if err := os.Remove(s.ckptPath(lsn)); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("storage: drop checkpoint: %w", err)
			}
		}
	}
	return nil
}

// Syncs returns the number of fsyncs the underlying WAL performed.
func (s *WALStore) Syncs() int64 { return s.wal.Syncs() }

// Appends returns the number of records appended to the underlying WAL.
func (s *WALStore) Appends() int64 { return s.wal.Appends() }

// Close flushes and closes the store. Files remain for the next Open.
func (s *WALStore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	return s.wal.Close()
}
