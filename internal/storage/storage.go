// Package storage provides per-node stable storage for the replication
// stack: Paxos acceptor state, decided-log entries, configuration-chain
// records and snapshots all live here.
//
// Two implementations share the Store interface. WALStore (walstore.go) is
// the durable backend: every mutation is a record in a segmented group-commit
// log, the key/value state is served from memory, and recovery replays the
// log over the newest checkpoint. MemStore, below, is the in-memory store
// tests and the mem workloads run on; it models a disk with a page cache:
// staged writes sit in a dirty buffer until Sync, Crash and PowerLoss discard
// that buffer, and the stable part survives node restarts because the cluster
// layer keeps the object across crash/recover cycles — what a file on disk
// would do, without the I/O nondeterminism. WithPrefix (prefix.go) namespaces
// either.
//
// Every layer above this package writes to a Stager: it stages writes and
// deletes, in order, and Sync is the barrier. Both stores are Stagers. Staged
// is the one adapter for any other Store, and the one place a store's
// optional methods are probed; on a store that stages writes but not deletes,
// its delete syncs first.
package storage

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"time"
)

// KV is one key/value pair returned by Scan.
type KV struct {
	Key   string
	Value []byte
}

// Store is the durable key/value interface the protocol layers write to.
// Keys are arbitrary strings; Scan iterates a prefix in sorted key order.
// The program writes through Stager, never through Set or Delete; those two
// stay because the benchmark module (bench/) calls them.
//
// Who owns a value: a store keeps the slice Set (or SetBuffered) is given and
// serves reads from it, so the caller must not modify it afterwards — it may
// keep reading it, and may hand the same slice to the transport or another
// store. A nil or empty value is a value: the key exists and reads back empty.
// Get and Scan return copies, which the caller owns.
type Store interface {
	// Set durably writes key=value (subject to the sync mode). The store
	// keeps value; see above. Outside this package only the benchmark
	// module calls it.
	Set(key string, value []byte) error
	// Get returns a copy of the value for key and whether it exists.
	Get(key string) ([]byte, bool, error)
	// Delete removes key if present, durably in the same sense as Set: once
	// it has returned on a store in sync mode, the key stays gone across a
	// crash. A key whose Delete had not returned when the process died may
	// come back; callers that delete many keys guarded by one record (a log
	// floor, a manifest) write that record first. Outside this package only
	// the benchmark module calls it.
	Delete(key string) error
	// Scan returns copies of all pairs whose key starts with prefix, sorted by
	// key.
	Scan(prefix string) ([]KV, error)
	// Sync flushes buffered writes to stable state.
	Sync() error
}

// ErrStoreClosed is returned by operations on a closed store.
var ErrStoreClosed = errors.New("storage: closed")

// BufferedStore is a Store that can stage a write without the per-call
// durability wait, making the next Sync the durability barrier. It is the
// write half of Stager, and keeps a method set of its own for decorators that
// implement exactly it; nothing above this package asserts it (see Staged).
type BufferedStore interface {
	Store
	// SetBuffered writes key=value visibly (read-your-writes, like an OS
	// page cache) but possibly non-durably, regardless of the store's sync
	// mode; the write reaches stable state on the next Sync. The store keeps
	// value, as Set does.
	SetBuffered(key string, value []byte) error
}

// Stager is the contract every layer above this package writes against: a
// store that stages writes and deletes, with Sync the barrier that makes them
// durable. Callers that batch many writes per fsync — the Paxos event loop's
// group commit, a chunked commit, a log release — stage and leave the barrier
// to whoever asserts the staged state.
//
// Staged operations, writes and deletes alike, become stable in the order
// they were staged: a crash before the barrier keeps a prefix of them. So a
// caller that stages a commit record after the records it names needs no
// barrier in between: if the commit record survived, so did they. WALStore
// logs them in that order and recovery cuts at the first torn record;
// MemStore keeps all of them or, on a power loss, none.
type Stager interface {
	BufferedStore
	// DeleteBuffered removes key visibly at once but possibly non-durably; the
	// removal reaches stable state on the next Sync, in staging order with
	// the staged writes. After a crash before that Sync the key may be back.
	DeleteBuffered(key string) error
}

// Staged returns s as a Stager, and is the one place a store's optional tiers
// are probed. A Stager — MemStore, WALStore, a WithPrefix view — comes back
// unchanged, so the hot path pays no wrapper. Any other store is adapted: a
// missing SetBuffered is Set, and a missing DeleteBuffered is Sync, then
// Delete. The Sync is what keeps staging order on a store that stages writes
// but not deletes: without it the delete could become stable ahead of a write
// staged before it — a log release's records ahead of the floor they are
// released under.
func Staged(s Store) Stager {
	if st, ok := s.(Stager); ok {
		return st
	}
	a := &stagedStore{Store: s, set: s.Set}
	if bs, ok := s.(BufferedStore); ok {
		a.set = bs.SetBuffered
	}
	return a
}

// stagedStore is what Staged makes of a store that is not a Stager.
type stagedStore struct {
	Store
	set func(key string, value []byte) error
}

func (s *stagedStore) SetBuffered(key string, value []byte) error { return s.set(key, value) }

func (s *stagedStore) DeleteBuffered(key string) error {
	if err := s.Sync(); err != nil {
		return err
	}
	return s.Delete(key)
}

// MemOptions configures a MemStore.
type MemOptions struct {
	// AutoSync makes every write immediately stable (default behaviour
	// when constructing with NewMem()).
	AutoSync bool
	// WriteLatency is charged on every Set/Delete, modeling device cost.
	WriteLatency time.Duration
}

// MemStore is the in-memory Store implementation with crash modeling.
type MemStore struct {
	opts MemOptions

	mu     sync.Mutex
	stable map[string][]byte
	dirty  map[string]staged
	closed bool

	writes int64
	syncs  int64
}

// staged is one entry of the dirty buffer: a write of value (nil included), or
// a delete.
type staged struct {
	value   []byte
	deleted bool
}

var _ Stager = (*MemStore)(nil)

// NewMem returns a store where every write is immediately stable.
func NewMem() *MemStore {
	return NewMemWithOptions(MemOptions{AutoSync: true})
}

// NewMemWithOptions returns a store with explicit options.
func NewMemWithOptions(opts MemOptions) *MemStore {
	return &MemStore{
		opts:   opts,
		stable: make(map[string][]byte),
		dirty:  make(map[string]staged),
	}
}

// Set implements Store.
func (s *MemStore) Set(key string, value []byte) error {
	if s.opts.WriteLatency > 0 {
		time.Sleep(s.opts.WriteLatency)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	s.writes++
	if s.opts.AutoSync {
		s.stable[key] = value
		delete(s.dirty, key) // supersedes whatever was staged for the key
		s.syncs++
		return nil
	}
	s.dirty[key] = staged{value: value}
	return nil
}

// SetBuffered implements Stager: the write is staged in the dirty
// buffer even with AutoSync on, and becomes stable on the next Sync.
func (s *MemStore) SetBuffered(key string, value []byte) error {
	if s.opts.WriteLatency > 0 {
		time.Sleep(s.opts.WriteLatency)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	s.writes++
	s.dirty[key] = staged{value: value}
	return nil
}

// Get implements Store. It reads through the dirty buffer so a writer sees
// its own un-synced writes (like an OS page cache).
func (s *MemStore) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrStoreClosed
	}
	if d, ok := s.dirty[key]; ok {
		if d.deleted {
			return nil, false, nil
		}
		return clone(d.value), true, nil
	}
	v, ok := s.stable[key]
	if !ok {
		return nil, false, nil
	}
	return clone(v), true, nil
}

// Delete implements Store.
func (s *MemStore) Delete(key string) error { return s.remove(key, s.opts.AutoSync) }

// DeleteBuffered implements Stager: the removal is staged in the
// dirty buffer even with AutoSync on, and becomes stable on the next Sync.
func (s *MemStore) DeleteBuffered(key string) error { return s.remove(key, false) }

func (s *MemStore) remove(key string, stable bool) error {
	if s.opts.WriteLatency > 0 {
		time.Sleep(s.opts.WriteLatency)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	s.writes++
	if stable {
		delete(s.stable, key)
		delete(s.dirty, key) // supersedes whatever was staged for the key
		return nil
	}
	s.dirty[key] = staged{deleted: true}
	return nil
}

// Scan implements Store.
func (s *MemStore) Scan(prefix string) ([]KV, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrStoreClosed
	}
	merged := make(map[string][]byte)
	for k, v := range s.stable {
		if strings.HasPrefix(k, prefix) {
			merged[k] = v
		}
	}
	for k, d := range s.dirty {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		if d.deleted {
			delete(merged, k)
		} else {
			merged[k] = d.value
		}
	}
	out := make([]KV, 0, len(merged))
	for k, v := range merged {
		out = append(out, KV{Key: k, Value: clone(v)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// Sync implements Store: dirty writes become stable.
func (s *MemStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	for k, d := range s.dirty {
		if d.deleted {
			delete(s.stable, k)
		} else {
			s.stable[k] = d.value
		}
	}
	s.dirty = make(map[string]staged)
	s.syncs++
	return nil
}

// Crash discards all un-synced writes, modeling a power failure. The store
// remains usable (a restarted process reopens the same "disk").
func (s *MemStore) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dirty = make(map[string]staged)
}

// Close marks the store closed; all subsequent operations fail.
func (s *MemStore) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
}

// PowerLoss is Close and Crash at one instant: the store stops taking writes
// and forgets everything not yet synced, while the process that was using it
// may still be running — its later writes and Syncs fail, so it can externalize
// nothing that depends on them. Reopen is the restart.
func (s *MemStore) PowerLoss() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.dirty = make(map[string]staged)
}

// Reopen makes a closed store usable again with its stable content, like a
// process reopening the same disk.
func (s *MemStore) Reopen() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = false
}

// Writes returns the number of write operations issued, for cost accounting.
func (s *MemStore) Writes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes
}

// Syncs returns the number of sync (stable-write) operations performed.
func (s *MemStore) Syncs() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs
}

// Len returns the number of stable keys (dirty buffer excluded).
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.stable)
}

func clone(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// SlotKey renders a log-slot key under prefix with fixed-width zero padding
// so lexicographic order equals numeric order.
func SlotKey(prefix string, slot uint64) string {
	var digits [20]byte // math.MaxUint64 has 20 digits
	for i := len(digits) - 1; i >= 0; i-- {
		digits[i] = byte('0' + slot%10)
		slot /= 10
	}
	return prefix + string(digits[:])
}
