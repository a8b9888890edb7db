package statemachine

// Chunk formats. A chunked snapshot's manifest carries the format byte so a
// restorer can reject a snapshot produced by an incompatible machine before
// feeding it any chunks.
const (
	// SnapshotFormatShards: chunk i holds shard i of a sharded machine,
	// serialized with keys in sorted order. Chunk count equals the (fixed)
	// shard count, so the mapping chunk->shard is positional and chunks are
	// byte-identical across replicas holding equal state.
	SnapshotFormatShards byte = 1
	// SnapshotFormatBlob: chunk 0 is wrapper metadata (the session table for
	// Sessioned) and chunks 1..n-1 are consecutive fixed-size byte ranges of
	// the inner machine's monolithic Snapshot(). Used as the fallback when
	// the inner machine does not implement ChunkedSnapshotter.
	SnapshotFormatBlob byte = 2
	// SnapshotFormatMono is reserved: format byte 3 was the single-chunk
	// monolithic snapshot of the retired monolithic-transfer ablation. No
	// machine produces it and every restorer rejects it as unknown.
	SnapshotFormatMono byte = 3
)

// BlobChunkSize is the range size used by SnapshotFormatBlob fallback chunking.
const BlobChunkSize = 64 << 10

// SnapshotSource is an immutable, cheaply captured snapshot that can be
// serialized chunk by chunk after the capture returns. Implementations are
// copy-on-write forks: capturing one is O(shards), not O(state), and the
// owning machine may keep mutating concurrently. Chunk may be called from a
// single goroutine at a time (not necessarily the capturing one); chunks are
// deterministic, so two replicas with equal state produce byte-identical
// chunk sequences.
type SnapshotSource interface {
	// Format is the SnapshotFormat* constant describing the chunk layout.
	Format() byte
	// NumChunks is the fixed number of chunks in this snapshot.
	NumChunks() int
	// Chunk serializes chunk i (0 <= i < NumChunks).
	Chunk(i int) []byte
}

// ChunkedSnapshotter is an optional Machine capability: machines that
// implement it can fork a snapshot in O(1)/O(shards) time and restore from
// chunks delivered in any order. Machines that do not implement it fall back
// to the monolithic Snapshot/Restore pair (wrapped in SnapshotFormatBlob
// framing by Sessioned).
type ChunkedSnapshotter interface {
	// ForkSnapshot captures the current state as a copy-on-write fork.
	// The caller may serialize it concurrently with further Apply calls.
	ForkSnapshot() SnapshotSource
	// RestoreChunk installs one chunk of a snapshot being restored. Chunks
	// may arrive in any order; each index is delivered at most once.
	RestoreChunk(index int, data []byte) error
	// FinishRestore completes a chunked restore after all total chunks have
	// been delivered via RestoreChunk, validating completeness.
	FinishRestore(total int) error
}

// numShards is the fixed shard count used by the sharded machines (KVStore,
// Bank). It bounds both the COW fork cost at wedge time and the chunk count
// of a chunked snapshot. Fixed so that chunk i always maps to shard i and the
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
