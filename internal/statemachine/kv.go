package statemachine

import (
	"fmt"
	"sort"

	"repro/internal/types"
)

// KVOp enumerates the key/value machine's operations. Values start at 1.
type KVOp uint8

const (
	// KVPut sets key=value. Reply: OK.
	KVPut KVOp = 1
	// KVGet reads a key. Reply: OK+value or NotFound.
	KVGet KVOp = 2
	// KVDelete removes a key. Reply: OK (even if absent).
	KVDelete KVOp = 3
	// KVAppend appends bytes to a key's value (creating it). Reply: OK.
	KVAppend KVOp = 4
	// KVCAS sets key=new iff current value equals expect. Reply: OK or
	// Conflict+current (NotFound if the key is absent).
	KVCAS KVOp = 5
	// KVKeys lists up to limit keys with a prefix. Reply: OK+list.
	KVKeys KVOp = 6
	// KVSize reports the number of keys. Reply: OK+uvarint.
	KVSize KVOp = 7
)

// KVStore is a deterministic in-memory key/value machine. Keys are hashed
// across a fixed set of shards; a snapshot fork captures the shard map
// references and marks them shared, so the fork is O(shards) and the machine
// clones a shard lazily on first write after a fork (copy-on-write).
// The zero value is not usable; construct with NewKVStore.
type KVStore struct {
	shards [numShards]map[string][]byte
	// shared[i] means shards[i] may be referenced by an outstanding
	// snapshot fork and must be cloned before mutation.
	shared [numShards]bool
	// sizes[i] is the key count of shard i. Kept per shard (not one global
	// counter) so single-key ops running on distinct shards under parallel
	// apply never write a common field; aggregate queries sum it.
	sizes [numShards]int
}

var (
	_ Machine            = (*KVStore)(nil)
	_ ChunkedSnapshotter = (*KVStore)(nil)
	_ ShardedApplier     = (*KVStore)(nil)
)

// NewKVStore returns an empty key/value machine.
func NewKVStore() *KVStore {
	m := &KVStore{}
	for i := range m.shards {
		m.shards[i] = make(map[string][]byte)
	}
	return m
}

// NewKVMachine is a Factory for KVStore.
func NewKVMachine() Machine { return NewKVStore() }

// EncodePut encodes a put operation.
func EncodePut(key string, value []byte) []byte {
	w := types.NewWriter(2 + len(key) + len(value) + 8)
	w.Byte(byte(KVPut))
	w.String(key)
	w.BytesField(value)
	return w.Bytes()
}

// EncodeGet encodes a get operation.
func EncodeGet(key string) []byte {
	w := types.NewWriter(2 + len(key))
	w.Byte(byte(KVGet))
	w.String(key)
	return w.Bytes()
}

// EncodeDelete encodes a delete operation.
func EncodeDelete(key string) []byte {
	w := types.NewWriter(2 + len(key))
	w.Byte(byte(KVDelete))
	w.String(key)
	return w.Bytes()
}

// EncodeAppend encodes an append operation.
func EncodeAppend(key string, suffix []byte) []byte {
	w := types.NewWriter(2 + len(key) + len(suffix) + 8)
	w.Byte(byte(KVAppend))
	w.String(key)
	w.BytesField(suffix)
	return w.Bytes()
}

// EncodeCAS encodes a compare-and-swap operation.
func EncodeCAS(key string, expect, newValue []byte) []byte {
	w := types.NewWriter(2 + len(key) + len(expect) + len(newValue) + 12)
	w.Byte(byte(KVCAS))
	w.String(key)
	w.BytesField(expect)
	w.BytesField(newValue)
	return w.Bytes()
}

// EncodeKeys encodes a prefix-list operation.
func EncodeKeys(prefix string, limit uint64) []byte {
	w := types.NewWriter(2 + len(prefix) + 8)
	w.Byte(byte(KVKeys))
	w.String(prefix)
	w.Uvarint(limit)
	return w.Bytes()
}

// EncodeSize encodes a size query.
func EncodeSize() []byte { return []byte{byte(KVSize)} }

// ReadOnly implements ReadOnlyDetector: gets, key listings and size queries
// never mutate the store.
func (m *KVStore) ReadOnly(op []byte) bool {
	if len(op) == 0 {
		return false
	}
	switch KVOp(op[0]) {
	case KVGet, KVKeys, KVSize:
		return true
	default:
		return false
	}
}

// get reads a key without triggering a clone.
func (m *KVStore) get(key string) ([]byte, bool) {
	v, ok := m.shards[shardOf(key)][key]
	return v, ok
}

// mutable returns the shard holding key, cloning it first if a snapshot fork
// may still reference it.
func (m *KVStore) mutable(key string) map[string][]byte {
	i := shardOf(key)
	if m.shared[i] {
		clone := make(map[string][]byte, len(m.shards[i]))
		for k, v := range m.shards[i] {
			clone[k] = v
		}
		m.shards[i] = clone
		m.shared[i] = false
	}
	return m.shards[i]
}

// Apply implements Machine.
func (m *KVStore) Apply(op []byte) []byte {
	if len(op) == 0 {
		return statusReply(StatusBadOp)
	}
	r := types.NewReader(op[1:])
	switch KVOp(op[0]) {
	case KVPut:
		key := r.String()
		// The one copy a replica needs: op is a window of a batch's accept
		// record, and a value kept as a view would pin the whole record — and
		// every other command in it — for as long as the key lives.
		val := r.BytesField()
		if r.Err() != nil {
			return statusReply(StatusBadOp)
		}
		sh := m.mutable(key)
		if _, ok := sh[key]; !ok {
			m.sizes[shardOf(key)]++
		}
		sh[key] = val
		return okReply(nil)
	case KVGet:
		key := r.String()
		if r.Err() != nil {
			return statusReply(StatusBadOp)
		}
		v, ok := m.get(key)
		if !ok {
			return statusReply(StatusNotFound)
		}
		return okReply(v)
	case KVDelete:
		key := r.String()
		if r.Err() != nil {
			return statusReply(StatusBadOp)
		}
		if _, ok := m.get(key); ok {
			delete(m.mutable(key), key)
			m.sizes[shardOf(key)]--
		}
		return okReply(nil)
	case KVAppend:
		key := r.String()
		suffix := r.BytesView() // copied into next below
		if r.Err() != nil {
			return statusReply(StatusBadOp)
		}
		sh := m.mutable(key)
		cur, ok := sh[key]
		if !ok {
			m.sizes[shardOf(key)]++
		}
		next := make([]byte, 0, len(cur)+len(suffix))
		next = append(next, cur...)
		next = append(next, suffix...)
		sh[key] = next
		return okReply(nil)
	case KVCAS:
		key := r.String()
		expect := r.BytesView()  // only compared
		newVal := r.BytesField() // kept: copied, as Put's value is
		if r.Err() != nil {
			return statusReply(StatusBadOp)
		}
		cur, ok := m.get(key)
		if !ok {
			return statusReply(StatusNotFound)
		}
		if !bytesEqual(cur, expect) {
			out := make([]byte, 0, 1+len(cur))
			out = append(out, byte(StatusConflict))
			return append(out, cur...)
		}
		m.mutable(key)[key] = newVal
		return okReply(nil)
	case KVKeys:
		prefix := r.String()
		limit := r.Uvarint()
		if r.Err() != nil {
			return statusReply(StatusBadOp)
		}
		keys := make([]string, 0, 16)
		for i := range m.shards {
			for k := range m.shards[i] {
				if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
					keys = append(keys, k)
				}
			}
		}
		sort.Strings(keys)
		if limit > 0 && uint64(len(keys)) > limit {
			keys = keys[:limit]
		}
		w := types.NewWriter(1 + 8*len(keys))
		w.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			w.String(k)
		}
		return okReply(w.Bytes())
	case KVSize:
		w := types.NewWriter(4)
		w.Uvarint(uint64(m.Len()))
		return okReply(w.Bytes())
	default:
		return statusReply(StatusBadOp)
	}
}

// Snapshot implements Machine. Keys are emitted in globally sorted order so
// snapshots are byte-identical across replicas with equal state (and
// byte-identical to the pre-sharding format).
func (m *KVStore) Snapshot() []byte {
	keys := make([]string, 0, m.Len())
	total := 0
	for i := range m.shards {
		for k, v := range m.shards[i] {
			keys = append(keys, k)
			total += len(k) + len(v) + 8
		}
	}
	sort.Strings(keys)
	w := types.NewWriter(8 + total)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.String(k)
		w.BytesField(m.shards[shardOf(k)][k])
	}
	return w.Bytes()
}

// Restore implements Machine.
func (m *KVStore) Restore(snapshot []byte) error {
	r := types.NewReader(snapshot)
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return fmt.Errorf("kv snapshot header: %w", err)
	}
	var shards [numShards]map[string][]byte
	for i := range shards {
		shards[i] = make(map[string][]byte)
	}
	for i := uint64(0); i < n; i++ {
		k := r.String()
		v := r.BytesField()
		if err := r.Err(); err != nil {
			return fmt.Errorf("kv snapshot entry %d: %w", i, err)
		}
		shards[shardOf(k)][k] = v
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes in kv snapshot", types.ErrCodec, r.Remaining())
	}
	m.shards = shards
	m.shared = [numShards]bool{}
	for i := range shards {
		m.sizes[i] = len(shards[i])
	}
	return nil
}

// kvFork is a copy-on-write snapshot of a KVStore: it holds the shard map
// references captured at fork time. The maps are never mutated after capture
// (the machine clones a shared shard before writing), so serializing them
// concurrently with further applies is safe.
type kvFork struct {
	shards [numShards]map[string][]byte
}

// ForkSnapshot implements ChunkedSnapshotter. O(numShards): it copies the
// shard references and marks every shard shared; the next write to a shard
// pays for one clone. Stale shared marks (after the fork is dropped) cost at
// most one extra clone per shard and are cleared by Restore.
func (m *KVStore) ForkSnapshot() SnapshotSource {
	f := &kvFork{shards: m.shards}
	for i := range m.shared {
		m.shared[i] = true
	}
	return f
}

func (f *kvFork) Format() byte   { return SnapshotFormatShards }
func (f *kvFork) NumChunks() int { return numShards }

// Chunk serializes shard i: uvarint count, then sorted (key, value) pairs.
func (f *kvFork) Chunk(i int) []byte {
	sh := f.shards[i]
	keys := make([]string, 0, len(sh))
	total := 0
	for k, v := range sh {
		keys = append(keys, k)
		total += len(k) + len(v) + 8
	}
	sort.Strings(keys)
	w := types.NewWriter(8 + total)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.String(k)
		w.BytesField(sh[k])
	}
	return w.Bytes()
}

// RestoreChunk implements ChunkedSnapshotter: installs shard index from its
// serialized form. Chunks may arrive in any order.
func (m *KVStore) RestoreChunk(index int, data []byte) error {
	if index < 0 || index >= numShards {
		return fmt.Errorf("%w: kv chunk index %d out of range", types.ErrCodec, index)
	}
	r := types.NewReader(data)
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return fmt.Errorf("kv chunk %d header: %w", index, err)
	}
	sh := make(map[string][]byte, n)
	for i := uint64(0); i < n; i++ {
		k := r.String()
		v := r.BytesField()
		if err := r.Err(); err != nil {
			return fmt.Errorf("kv chunk %d entry %d: %w", index, i, err)
		}
		if shardOf(k) != index {
			return fmt.Errorf("%w: key %q does not belong to kv shard %d", types.ErrCodec, k, index)
		}
		sh[k] = v
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%w: trailing bytes in kv chunk %d", types.ErrCodec, index)
	}
	m.shards[index] = sh
	m.shared[index] = false
	m.sizes[index] = len(sh)
	return nil
}

// FinishRestore implements ChunkedSnapshotter.
func (m *KVStore) FinishRestore(total int) error {
	if total != numShards {
		return fmt.Errorf("%w: kv chunked snapshot has %d chunks, want %d", types.ErrCodec, total, numShards)
	}
	return nil
}

// Range calls fn for every key/value pair, in no particular order, stopping
// early if fn returns false. The router's partitioned machine uses it to
// extract one hash partition's keys when handing a shard to another group;
// values must not be mutated by fn.
func (m *KVStore) Range(fn func(key string, value []byte) bool) {
	for i := range m.shards {
		for k, v := range m.shards[i] {
			if !fn(k, v) {
				return
			}
		}
	}
}

// Len returns the number of keys, for tests and state-size accounting.
func (m *KVStore) Len() int {
	n := 0
	for i := range m.sizes {
		n += m.sizes[i]
	}
	return n
}

// OpShard implements ShardedApplier. Single-key ops report the shard of
// their key; KVKeys and KVSize scan every shard, so they (and anything
// malformed or unknown) are barriers.
func (m *KVStore) OpShard(op []byte) (int, bool) {
	if len(op) == 0 {
		return 0, false
	}
	switch KVOp(op[0]) {
	case KVPut, KVGet, KVDelete, KVAppend, KVCAS:
		r := types.NewReader(op[1:])
		key := r.String()
		if r.Err() != nil {
			return 0, false
		}
		return shardOf(key), true
	default:
		return 0, false
	}
}

// NumShards implements ShardedApplier.
func (m *KVStore) NumShards() int { return numShards }

// DecodeKeysReply parses the payload of a successful KVKeys reply.
func DecodeKeysReply(payload []byte) ([]string, error) {
	r := types.NewReader(payload)
	n := r.Uvarint()
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.String())
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
