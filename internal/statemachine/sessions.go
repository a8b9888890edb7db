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

	// restoredSessions: chunk 0 arrived in the restore under way.
	restoredSessions bool
}

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

// encodeSessions serializes the session table (in SessionClients order),
// the payload of chunk 0 of a Sessioned snapshot.
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
	sessions := make(map[types.NodeID]sessionState, min(n, uint64(r.Remaining())))
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

// sessionedFork is a snapshot of a Sessioned machine: chunk 0 is the session
// table (serialized eagerly at fork time — O(clients), cheap), chunks 1..n
// are the inner fork's chunks 0..n-1.
type sessionedFork struct {
	sessions []byte
	inner    SnapshotSource
}

// ForkSnapshot captures the session table and forks the inner machine:
// O(shards + clients).
func (s *Sessioned) ForkSnapshot() SnapshotSource {
	return &sessionedFork{sessions: s.encodeSessions(), inner: s.inner.ForkSnapshot()}
}

func (f *sessionedFork) NumChunks() int { return 1 + f.inner.NumChunks() }

func (f *sessionedFork) Chunk(i int) []byte {
	if i == 0 {
		return f.sessions
	}
	return f.inner.Chunk(i - 1)
}

// RestoreChunk installs one chunk into a fresh machine: chunk 0 replaces the
// session table, later ones go to the inner machine.
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
	return s.inner.RestoreChunk(index-1, data)
}

// FinishRestore validates that the session chunk arrived and finishes the
// inner machine's restore.
func (s *Sessioned) FinishRestore(total int) error {
	if total < 1 {
		return fmt.Errorf("%w: sessioned snapshot needs at least 1 chunk, got %d", types.ErrCodec, total)
	}
	if !s.restoredSessions {
		return fmt.Errorf("%w: session chunk 0 missing from chunked restore", types.ErrCodec)
	}
	s.restoredSessions = false
	return s.inner.FinishRestore(total - 1)
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
