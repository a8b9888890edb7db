package storage

import (
	"fmt"
	"hash/crc32"

	"repro/internal/types"
)

// Chunked blob persistence: a large value (a state-machine snapshot) is
// stored as a manifest key plus one key per chunk, so neither writer nor
// reader ever materializes the whole value as a single []byte, and a
// partially fetched blob survives a crash — present chunks are re-verified
// against the manifest CRCs on recovery and only the missing ones refetched.
//
// Layout under a caller-chosen prefix:
//
//	<prefix>/meta    manifest: format byte + base slot + per-chunk CRC32-C
//	<prefix>/c/<i>   chunk i (zero-padded decimal index)

// ChunkManifest describes a chunked blob. Format is interpreted by the owner
// (see statemachine.SnapshotFormat); CRCs[i] is the CRC32-C of chunk i.
// Base is the log position the blob's content corresponds to: an installer
// must set its apply cursor to Base and skip decided slots ≤ Base (they are
// already folded into the blob), which is what gates replies for slots a
// speculative engine decided before the install. Wedge-captured snapshots
// carry Base 0 — the successor's log starts fresh at slot 1.
type ChunkManifest struct {
	Format byte
	Base   types.Slot
	CRCs   []uint32
}

// Chunks returns the number of chunks in the manifest.
func (m ChunkManifest) Chunks() int { return len(m.CRCs) }

// ChunkCRC computes the CRC32-C checksum a manifest records per chunk.
func ChunkCRC(data []byte) uint32 { return crc32.Checksum(data, walCRC) }

// EncodeChunkManifest serializes a manifest.
func EncodeChunkManifest(m ChunkManifest) []byte {
	w := types.NewWriter(12 + 5*len(m.CRCs))
	w.Byte(m.Format)
	w.Uvarint(uint64(m.Base))
	w.Uvarint(uint64(len(m.CRCs)))
	for _, c := range m.CRCs {
		w.Uvarint(uint64(c))
	}
	return w.Bytes()
}

// DecodeChunkManifest parses a manifest.
func DecodeChunkManifest(data []byte) (ChunkManifest, error) {
	r := types.NewReader(data)
	m := ChunkManifest{Format: r.Byte()}
	m.Base = types.Slot(r.Uvarint())
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return ChunkManifest{}, fmt.Errorf("chunk manifest header: %w", err)
	}
	if n > 1<<20 {
		return ChunkManifest{}, fmt.Errorf("%w: absurd chunk count %d", types.ErrCodec, n)
	}
	m.CRCs = make([]uint32, n)
	for i := range m.CRCs {
		m.CRCs[i] = uint32(r.Uvarint())
	}
	if err := r.Err(); err != nil {
		return ChunkManifest{}, fmt.Errorf("chunk manifest body: %w", err)
	}
	if r.Remaining() != 0 {
		return ChunkManifest{}, fmt.Errorf("%w: trailing bytes in chunk manifest", types.ErrCodec)
	}
	return m, nil
}

// ManifestKey returns the store key of the manifest under prefix.
func ManifestKey(prefix string) string { return prefix + "/meta" }

// ChunkKey returns the store key of chunk i under prefix.
func ChunkKey(prefix string, i int) string { return fmt.Sprintf("%s/c/%06d", prefix, i) }

// ReadChunkManifest loads the manifest under prefix; ok is false if absent.
func ReadChunkManifest(s Store, prefix string) (ChunkManifest, bool, error) {
	data, ok, err := s.Get(ManifestKey(prefix))
	if err != nil || !ok {
		return ChunkManifest{}, false, err
	}
	m, err := DecodeChunkManifest(data)
	if err != nil {
		return ChunkManifest{}, false, err
	}
	return m, true, nil
}

// commitSliceBytes is how much StageChunkedCommit stages between two Syncs.
// One barrier for the whole blob would be fewer fsyncs still, but an 8 MB
// staged tail meets the WAL's 4 MiB segment roll, which flushes and fsyncs it
// with both the store's and the log's mutex held, and everything else that
// writes to the node's store — the engine's accepts above all — waits behind
// that; ISSUE 18's sizing measured joins slower that way, not faster
// (EXPERIMENTS.md P18). 1 MiB is the unit the publisher already paces itself
// by.
const commitSliceBytes = 1 << 20

// WriteChunkedCommit persists a whole chunked blob: StageChunkedCommit, then
// one Sync, so the blob is durable when it returns.
func WriteChunkedCommit(s Stager, prefix string, m ChunkManifest, chunk func(i int) []byte) error {
	if err := StageChunkedCommit(s, prefix, m, chunk); err != nil {
		return err
	}
	return s.Sync()
}

// StageChunkedCommit writes a whole chunked blob in commit order — every chunk
// (the callback is called once per index, in order), then the pruning of a
// longer predecessor's tail, then the manifest that names them — staged, and
// leaves the last barrier to the caller. Nobody is promised a chunk, only the
// manifest, and staged operations become stable in the order they were staged
// (Stager): whichever prefix a crash keeps, a manifest that survived has its
// chunks behind it. It is safe for replacing a blob in place
// — a periodic checkpoint overwriting its predecessor: a crash mid-write
// leaves the old manifest with at worst some chunks missing or
// CRC-mismatching, which ReadChunked reports as incomplete — a recoverable
// state, never a poisoned one. (A resumable fetch does the opposite by hand:
// the manifest first, then chunks as they arrive and verify, all staged.)
func StageChunkedCommit(s Stager, prefix string, m ChunkManifest, chunk func(i int) []byte) error {
	staged := 0
	for i := 0; i < len(m.CRCs); i++ {
		data := chunk(i)
		if err := s.SetBuffered(ChunkKey(prefix, i), data); err != nil {
			return err
		}
		if staged += len(data); staged >= commitSliceBytes {
			staged = 0
			if err := s.Sync(); err != nil {
				return err
			}
		}
	}
	// Stale chunks beyond the new count would survive under the old keys;
	// remove them so the blob's key range matches the manifest.
	if old, ok, err := ReadChunkManifest(s, prefix); err == nil && ok {
		for i := len(m.CRCs); i < old.Chunks(); i++ {
			if err := s.DeleteBuffered(ChunkKey(prefix, i)); err != nil {
				return err
			}
		}
	}
	return s.SetBuffered(ManifestKey(prefix), EncodeChunkManifest(m))
}

// ReadChunk loads chunk i under prefix and verifies it against the manifest
// CRC; a corrupt chunk is reported as absent (ok=false) so recovery refetches
// it rather than poisoning a restore.
func ReadChunk(s Store, prefix string, m ChunkManifest, i int) ([]byte, bool, error) {
	data, ok, err := s.Get(ChunkKey(prefix, i))
	if err != nil || !ok {
		return nil, false, err
	}
	if ChunkCRC(data) != m.CRCs[i] {
		return nil, false, nil
	}
	return data, true, nil
}

// ReadChunked loads a chunked blob. complete reports whether every chunk was
// present and CRC-clean; chunks holds nil at missing/corrupt indices so a
// resuming fetcher knows exactly what is left to pull.
func ReadChunked(s Store, prefix string) (m ChunkManifest, chunks [][]byte, complete bool, err error) {
	m, ok, err := ReadChunkManifest(s, prefix)
	if err != nil || !ok {
		return ChunkManifest{}, nil, false, err
	}
	chunks = make([][]byte, m.Chunks())
	complete = true
	for i := range chunks {
		data, ok, err := ReadChunk(s, prefix, m, i)
		if err != nil {
			return ChunkManifest{}, nil, false, err
		}
		if !ok {
			complete = false
			continue
		}
		chunks[i] = data
	}
	return m, chunks, complete, nil
}

// DeleteChunked removes a chunked blob: every chunk, then the manifest, all
// staged, and one Sync. Whichever prefix of the deletes a crash keeps, the
// blob is whole, incomplete (ReadChunked reports the missing chunks) or gone.
func DeleteChunked(s Stager, prefix string) error {
	m, ok, err := ReadChunkManifest(s, prefix)
	if err == nil && ok {
		for i := 0; i < m.Chunks(); i++ {
			if err := s.DeleteBuffered(ChunkKey(prefix, i)); err != nil {
				return err
			}
		}
	}
	if err := s.DeleteBuffered(ManifestKey(prefix)); err != nil {
		return err
	}
	return s.Sync()
}
