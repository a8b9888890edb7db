package statemachine

import (
	"fmt"
	"sort"

	"repro/internal/types"
)

// SnapshotFormat is the one chunk layout, the format byte a snapshot's
// manifest carries so a restorer rejects anything else before feeding it
// chunks. Chunk 0 is the session table; chunk 1+i is chunk i of the inner
// machine's fork — shard i of a sharded machine, keys in sorted order, or a
// Counter's one value. Bytes 2 and 3 were formats of retired code paths (the
// 64 KiB ranges of a monolithic snapshot, and a single-chunk monolithic
// snapshot); every restorer rejects them as unknown.
const SnapshotFormat byte = 1

// SnapshotSource is an immutable, cheaply captured snapshot that can be
// serialized chunk by chunk after the capture returns. Implementations are
// copy-on-write forks: capturing one is O(shards), not O(state), and the
// owning machine may keep mutating concurrently. Chunk may be called from a
// single goroutine at a time (not necessarily the capturing one); chunks are
// deterministic, so two replicas with equal state produce byte-identical
// chunk sequences.
type SnapshotSource interface {
	// NumChunks is the fixed number of chunks in this snapshot.
	NumChunks() int
	// Chunk serializes chunk i (0 <= i < NumChunks).
	Chunk(i int) []byte
}

// numShards is the fixed shard count used by the sharded machines (KVStore,
// Bank). It bounds both the COW fork cost at wedge time and the chunk count
// of a snapshot. Fixed so that chunk i always maps to shard i and the
// assignment of keys to chunks is identical on every replica.
const numShards = 32

// shardOf deterministically maps a key to a shard (FNV-1a, mod numShards).
func shardOf(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % numShards)
}

// NumKeyShards is the fixed hash-partition count exported for layers that
// partition the keyspace the same way the machines do (internal/router deals
// these partitions out to RSM groups once; a partition then moves only with
// its group). Equal to the machines' shard count so a router partition is
// exactly one KVStore shard / snapshot chunk.
const NumKeyShards = numShards

// KeyShard is the exported key→shard hash (identical to the one KVStore uses
// internally), so routing layers agree with the machine about which partition
// a key belongs to.
func KeyShard(key string) int { return shardOf(key) }

// shardCodec is how a shardMap's values go into a chunk and come back out.
type shardCodec[V any] struct {
	write func(*types.Writer, V)
	read  func(*types.Reader) V
	// size bounds the bytes an entry holding v takes besides its key, so a
	// chunk's buffer is allocated once.
	size func(v V) int
}

// shardMap is the state of a sharded machine: string keys hashed across
// numShards maps. A fork captures the map references and marks them shared,
// so forking is O(shards) and a shard is cloned lazily on its first write
// after a fork (copy-on-write). Embedding it gives a machine its
// ForkSnapshot, RestoreChunk, FinishRestore and Len. Call init before use.
type shardMap[V any] struct {
	shards [numShards]map[string]V
	// shared[i] means shards[i] may be referenced by an outstanding
	// snapshot fork and must be cloned before mutation.
	shared [numShards]bool
	codec  *shardCodec[V]
}

func (m *shardMap[V]) init(codec *shardCodec[V]) {
	m.codec = codec
	for i := range m.shards {
		m.shards[i] = make(map[string]V)
	}
}

// get reads a key without triggering a clone.
func (m *shardMap[V]) get(key string) (V, bool) {
	v, ok := m.shards[shardOf(key)][key]
	return v, ok
}

// mutable returns shard i, cloning it first if a snapshot fork may still
// reference it.
func (m *shardMap[V]) mutable(i int) map[string]V {
	if m.shared[i] {
		clone := make(map[string]V, len(m.shards[i]))
		for k, v := range m.shards[i] {
			clone[k] = v
		}
		m.shards[i] = clone
		m.shared[i] = false
	}
	return m.shards[i]
}

// set writes key=v.
func (m *shardMap[V]) set(key string, v V) {
	m.mutable(shardOf(key))[key] = v
}

// del removes key if present; an absent key clones nothing.
func (m *shardMap[V]) del(key string) {
	i := shardOf(key)
	if _, ok := m.shards[i][key]; ok {
		delete(m.mutable(i), key)
	}
}

// Len returns the number of keys.
func (m *shardMap[V]) Len() int {
	n := 0
	for i := range m.shards {
		n += len(m.shards[i])
	}
	return n
}

// ForkSnapshot captures the state in O(numShards): it copies the shard
// references and marks every shard shared; the next write to a shard pays for
// one clone. Stale shared marks (after the fork is dropped) cost at most one
// extra clone per shard and are cleared by RestoreChunk.
func (m *shardMap[V]) ForkSnapshot() SnapshotSource {
	f := &shardFork[V]{shards: m.shards, codec: m.codec}
	for i := range m.shared {
		m.shared[i] = true
	}
	return f
}

// shardFork is a copy-on-write snapshot of a shardMap. Its maps are never
// mutated after capture (the machine clones a shared shard before writing),
// so serializing them concurrently with further applies is safe.
type shardFork[V any] struct {
	shards [numShards]map[string]V
	codec  *shardCodec[V]
}

func (f *shardFork[V]) NumChunks() int { return numShards }

// Chunk serializes shard i: uvarint count, then (key, value) pairs in sorted
// key order.
func (f *shardFork[V]) Chunk(i int) []byte {
	sh := f.shards[i]
	keys := make([]string, 0, len(sh))
	total := 0
	for k, v := range sh {
		keys = append(keys, k)
		total += len(k) + f.codec.size(v)
	}
	sort.Strings(keys)
	w := types.NewWriter(8 + total)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.String(k)
		f.codec.write(w, sh[k])
	}
	return w.Bytes()
}

// RestoreChunk installs shard index from its serialized form. Chunks may
// arrive in any order; a key hashed to another shard is corruption.
func (m *shardMap[V]) RestoreChunk(index int, data []byte) error {
	if index < 0 || index >= numShards {
		return fmt.Errorf("%w: chunk index %d out of range", types.ErrCodec, index)
	}
	r := types.NewReader(data)
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return fmt.Errorf("chunk %d header: %w", index, err)
	}
	sh := make(map[string]V, min(n, uint64(r.Remaining())))
	for i := uint64(0); i < n; i++ {
		k := r.String()
		v := m.codec.read(r)
		if err := r.Err(); err != nil {
			return fmt.Errorf("chunk %d entry %d: %w", index, i, err)
		}
		if shardOf(k) != index {
			return fmt.Errorf("%w: key %q does not belong to shard %d", types.ErrCodec, k, index)
		}
		sh[k] = v
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%w: trailing bytes in chunk %d", types.ErrCodec, index)
	}
	m.shards[index] = sh
	m.shared[index] = false
	return nil
}

// FinishRestore checks the restore had one chunk per shard.
func (m *shardMap[V]) FinishRestore(total int) error {
	if total != numShards {
		return fmt.Errorf("%w: snapshot has %d chunks, want %d", types.ErrCodec, total, numShards)
	}
	return nil
}
