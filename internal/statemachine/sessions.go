package statemachine

import (
	"fmt"

	"repro/internal/types"
)

// Sessioned wraps a Machine with per-client-session deduplication, the
// mechanism that makes command re-submission across retries and
// reconfiguration boundaries idempotent (at-most-once execution).
//
// For every client it remembers the highest applied sequence number and the
// reply to that command. A command with seq equal to the remembered one
// returns the cached reply without re-applying; a smaller seq is stale and
// returns no reply. Session state is part of the snapshot, so deduplication
// survives state transfer to a successor configuration — the property the
// paper's composition depends on.
type Sessioned struct {
	inner    Machine
	sessions map[types.NodeID]sessionState

	// Transient chunked-restore state (see RestoreChunk/FinishRestore).
	restoredSessions bool
	restoreParts     map[int][]byte
}

var _ ChunkedSnapshotter = (*Sessioned)(nil)

type sessionState struct {
	lastSeq   uint64
	lastReply []byte
}

// NewSessioned wraps inner with a fresh session table.
func NewSessioned(inner Machine) *Sessioned {
	return &Sessioned{
		inner:    inner,
		sessions: make(map[types.NodeID]sessionState),
	}
}

// ApplyCommand applies cmd with deduplication. It returns the reply and
// whether the command was recognized as a duplicate (in which case the inner
// machine was not touched). System commands (empty Client) bypass dedup.
// Noop commands are ignored entirely.
func (s *Sessioned) ApplyCommand(cmd types.Command) (reply []byte, duplicate bool) {
	if cmd.Kind == types.CmdNoop {
		return nil, false
	}
	if cmd.Client == "" {
		return s.inner.Apply(cmd.Data), false
	}
	sess, ok := s.sessions[cmd.Client]
	if ok && cmd.Seq <= sess.lastSeq {
		if cmd.Seq == sess.lastSeq {
			return sess.lastReply, true
		}
		return nil, true // stale retry; the reply is long gone
	}
	reply = s.inner.Apply(cmd.Data)
	s.sessions[cmd.Client] = sessionState{lastSeq: cmd.Seq, lastReply: reply}
	return reply, false
}

// LastSeq returns the highest applied sequence number for client (0 if the
// session is unknown).
func (s *Sessioned) LastSeq(client types.NodeID) uint64 {
	return s.sessions[client].lastSeq
}

// ReadOnly reports whether op cannot change the inner machine's state,
// delegating to the inner machine's ReadOnlyDetector (false if absent).
func (s *Sessioned) ReadOnly(op []byte) bool {
	if d, ok := s.inner.(ReadOnlyDetector); ok {
		return d.ReadOnly(op)
	}
	return false
}

// ApplyRead executes a read-only op against the inner machine directly,
// bypassing the session table: fast-path reads are not logged, so they must
// not advance session state either (a retried read simply re-executes,
// which is harmless for an op that changes nothing). The caller is
// responsible for only passing ops for which ReadOnly is true.
func (s *Sessioned) ApplyRead(op []byte) []byte {
	return s.inner.Apply(op)
}

// Sessions returns the number of tracked client sessions.
func (s *Sessioned) Sessions() int { return len(s.sessions) }

// Snapshot serializes the session table and the inner machine's state into a
// single deterministic blob.
func (s *Sessioned) Snapshot() []byte {
	clients := s.SessionClients()
	inner := s.inner.Snapshot()
	w := types.NewWriter(16 + 32*len(clients) + len(inner))
	w.Uvarint(uint64(len(clients)))
	for _, c := range clients {
		sess := s.sessions[c]
		w.NodeID(c)
		w.Uvarint(sess.lastSeq)
		w.BytesField(sess.lastReply)
	}
	w.BytesField(inner)
	return w.Bytes()
}

// Restore replaces both the session table and the inner machine's state.
func (s *Sessioned) Restore(snapshot []byte) error {
	r := types.NewReader(snapshot)
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return fmt.Errorf("session snapshot header: %w", err)
	}
	sessions := make(map[types.NodeID]sessionState, n)
	for i := uint64(0); i < n; i++ {
		c := r.NodeID()
		seq := r.Uvarint()
		rep := r.BytesField()
		if err := r.Err(); err != nil {
			return fmt.Errorf("session snapshot entry %d: %w", i, err)
		}
		sessions[c] = sessionState{lastSeq: seq, lastReply: rep}
	}
	inner := r.BytesField()
	if err := r.Err(); err != nil {
		return fmt.Errorf("session snapshot body: %w", err)
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%w: trailing bytes in session snapshot", types.ErrCodec)
	}
	if err := s.inner.Restore(inner); err != nil {
		return fmt.Errorf("restore inner machine: %w", err)
	}
	s.sessions = sessions
	return nil
}

// encodeSessions serializes the session table alone (in SessionClients
// order), the payload of chunk 0 in a chunked Sessioned snapshot.
func (s *Sessioned) encodeSessions() []byte {
	clients := s.SessionClients()
	w := types.NewWriter(8 + 32*len(clients))
	w.Uvarint(uint64(len(clients)))
	for _, c := range clients {
		sess := s.sessions[c]
		w.NodeID(c)
		w.Uvarint(sess.lastSeq)
		w.BytesField(sess.lastReply)
	}
	return w.Bytes()
}

func (s *Sessioned) decodeSessions(data []byte) error {
	r := types.NewReader(data)
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return fmt.Errorf("session chunk header: %w", err)
	}
	sessions := make(map[types.NodeID]sessionState, n)
	for i := uint64(0); i < n; i++ {
		c := r.NodeID()
		seq := r.Uvarint()
		rep := r.BytesField()
		if err := r.Err(); err != nil {
			return fmt.Errorf("session chunk entry %d: %w", i, err)
		}
		sessions[c] = sessionState{lastSeq: seq, lastReply: rep}
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%w: trailing bytes in session chunk", types.ErrCodec)
	}
	s.sessions = sessions
	return nil
}

// sessionedFork is a chunked snapshot of a Sessioned machine. Chunk 0 is the
// session table (serialized eagerly at fork time — O(clients), cheap).
// If the inner machine supports chunked snapshots, chunks 1..n are the inner
// fork's chunks 0..n-1 (SnapshotFormatShards). Otherwise the inner machine's
// monolithic Snapshot() is taken eagerly and chunks 1..n are consecutive
// BlobChunkSize ranges of it (SnapshotFormatBlob).
type sessionedFork struct {
	sessions []byte
	inner    SnapshotSource // nil in blob mode
	blob     []byte         // inner.Snapshot() in blob mode
}

// ChunkFormat reports the chunk layout a fork of this machine would use,
// letting a restorer validate a manifest before fetching chunks.
func (s *Sessioned) ChunkFormat() byte {
	if _, ok := s.inner.(ChunkedSnapshotter); ok {
		return SnapshotFormatShards
	}
	return SnapshotFormatBlob
}

// ForkSnapshot implements ChunkedSnapshotter. With a chunked inner machine
// this is O(shards + clients); with a monolithic inner machine the inner
// Snapshot() is still serialized eagerly (the fallback the capability exists
// to avoid, retained for machines that don't opt in).
func (s *Sessioned) ForkSnapshot() SnapshotSource {
	f := &sessionedFork{sessions: s.encodeSessions()}
	if cs, ok := s.inner.(ChunkedSnapshotter); ok {
		f.inner = cs.ForkSnapshot()
	} else {
		f.blob = s.inner.Snapshot()
	}
	return f
}

func (f *sessionedFork) Format() byte {
	if f.inner != nil {
		return SnapshotFormatShards
	}
	return SnapshotFormatBlob
}

func (f *sessionedFork) NumChunks() int {
	if f.inner != nil {
		return 1 + f.inner.NumChunks()
	}
	return 1 + (len(f.blob)+BlobChunkSize-1)/BlobChunkSize
}

func (f *sessionedFork) Chunk(i int) []byte {
	if i == 0 {
		return f.sessions
	}
	if f.inner != nil {
		return f.inner.Chunk(i - 1)
	}
	lo := (i - 1) * BlobChunkSize
	hi := lo + BlobChunkSize
	if hi > len(f.blob) {
		hi = len(f.blob)
	}
	return f.blob[lo:hi]
}

// RestoreChunk implements ChunkedSnapshotter. Chunk 0 replaces the session
// table; later chunks go to the inner machine (shard mode) or are buffered
// until FinishRestore reassembles the monolithic snapshot (blob mode).
func (s *Sessioned) RestoreChunk(index int, data []byte) error {
	if index < 0 {
		return fmt.Errorf("%w: negative session chunk index %d", types.ErrCodec, index)
	}
	if index == 0 {
		if err := s.decodeSessions(data); err != nil {
			return err
		}
		s.restoredSessions = true
		return nil
	}
	if cs, ok := s.inner.(ChunkedSnapshotter); ok {
		return cs.RestoreChunk(index-1, data)
	}
	if s.restoreParts == nil {
		s.restoreParts = make(map[int][]byte)
	}
	s.restoreParts[index] = data
	return nil
}

// FinishRestore implements ChunkedSnapshotter: validates that all total
// chunks arrived and, in blob mode, reassembles and restores the inner
// machine's monolithic snapshot.
func (s *Sessioned) FinishRestore(total int) error {
	if total < 1 {
		return fmt.Errorf("%w: sessioned snapshot needs at least 1 chunk, got %d", types.ErrCodec, total)
	}
	if !s.restoredSessions {
		return fmt.Errorf("%w: session chunk 0 missing from chunked restore", types.ErrCodec)
	}
	s.restoredSessions = false
	if cs, ok := s.inner.(ChunkedSnapshotter); ok {
		return cs.FinishRestore(total - 1)
	}
	size := 0
	for i := 1; i < total; i++ {
		part, ok := s.restoreParts[i]
		if !ok {
			return fmt.Errorf("%w: blob chunk %d missing from chunked restore", types.ErrCodec, i)
		}
		size += len(part)
	}
	blob := make([]byte, 0, size)
	for i := 1; i < total; i++ {
		blob = append(blob, s.restoreParts[i]...)
	}
	s.restoreParts = nil
	if err := s.inner.Restore(blob); err != nil {
		return fmt.Errorf("restore inner machine: %w", err)
	}
	return nil
}

// Inner returns the wrapped machine (read-only test access).
func (s *Sessioned) Inner() Machine { return s.inner }

// SessionClients returns the tracked client IDs in sorted order, the order
// snapshots encode them in.
func (s *Sessioned) SessionClients() []types.NodeID {
	clients := make([]types.NodeID, 0, len(s.sessions))
	for c := range s.sessions {
		clients = append(clients, c)
	}
	return types.SortNodeIDs(clients)
}
