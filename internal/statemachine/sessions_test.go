package statemachine

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func appCmd(client types.NodeID, seq uint64, op []byte) types.Command {
	return types.Command{Kind: types.CmdApp, Client: client, Seq: seq, Data: op}
}

func TestSessionedDedupExactRetry(t *testing.T) {
	s := NewSessioned(NewCounterMachine())
	r1, dup := s.ApplyCommand(appCmd("c1", 1, EncodeAdd(5)))
	if dup {
		t.Fatal("first apply marked duplicate")
	}
	r2, dup := s.ApplyCommand(appCmd("c1", 1, EncodeAdd(5)))
	if !dup {
		t.Fatal("retry not marked duplicate")
	}
	if !bytes.Equal(r1, r2) {
		t.Fatal("cached reply differs")
	}
	v, _ := DecodeUvarintReply(ReplyPayload(r2))
	if v != 5 {
		t.Fatalf("counter applied twice: %d", v)
	}
}

func TestSessionedStaleSeq(t *testing.T) {
	s := NewSessioned(NewCounterMachine())
	s.ApplyCommand(appCmd("c1", 1, EncodeAdd(1)))
	s.ApplyCommand(appCmd("c1", 2, EncodeAdd(1)))
	rep, dup := s.ApplyCommand(appCmd("c1", 1, EncodeAdd(1)))
	if !dup || rep != nil {
		t.Fatalf("stale retry: dup=%v rep=%v", dup, rep)
	}
	if got := s.LastSeq("c1"); got != 2 {
		t.Fatalf("LastSeq = %d", got)
	}
}

func TestSessionedIndependentClients(t *testing.T) {
	s := NewSessioned(NewCounterMachine())
	s.ApplyCommand(appCmd("c1", 1, EncodeAdd(1)))
	_, dup := s.ApplyCommand(appCmd("c2", 1, EncodeAdd(1)))
	if dup {
		t.Fatal("different client's seq collided")
	}
	if s.Sessions() != 2 {
		t.Fatalf("sessions = %d", s.Sessions())
	}
}

func TestSessionedSystemCommandsBypassDedup(t *testing.T) {
	s := NewSessioned(NewCounterMachine())
	s.ApplyCommand(types.Command{Kind: types.CmdApp, Data: EncodeAdd(1)})
	s.ApplyCommand(types.Command{Kind: types.CmdApp, Data: EncodeAdd(1)})
	rep, _ := s.ApplyCommand(appCmd("c", 1, EncodeCounterGet()))
	v, _ := DecodeUvarintReply(ReplyPayload(rep))
	if v != 2 {
		t.Fatalf("system commands deduped: %d", v)
	}
	if s.Sessions() != 1 {
		t.Fatalf("system commands created sessions: %d", s.Sessions())
	}
}

func TestSessionedNoopIgnored(t *testing.T) {
	s := NewSessioned(NewCounterMachine())
	rep, dup := s.ApplyCommand(types.NoopCommand())
	if rep != nil || dup {
		t.Fatal("noop produced effects")
	}
}

func TestSessionedSeqGapAllowed(t *testing.T) {
	// Clients may skip sequence numbers (e.g. a command abandoned after a
	// failed configuration); the session table tracks the max.
	s := NewSessioned(NewCounterMachine())
	s.ApplyCommand(appCmd("c1", 1, EncodeAdd(1)))
	_, dup := s.ApplyCommand(appCmd("c1", 5, EncodeAdd(1)))
	if dup {
		t.Fatal("gap treated as duplicate")
	}
	if s.LastSeq("c1") != 5 {
		t.Fatalf("LastSeq = %d", s.LastSeq("c1"))
	}
}

// TestSessionedSnapshotCarriesDedup is the heart of P4: dedup state moves
// with the snapshot, so a command replayed after a state transfer is
// recognized as a duplicate by the new configuration.
func TestSessionedSnapshotCarriesDedup(t *testing.T) {
	s := NewSessioned(NewBank())
	s.ApplyCommand(appCmd("c1", 1, EncodeOpen("a", 100)))
	s.ApplyCommand(appCmd("c1", 2, EncodeOpen("b", 0)))
	transfer := appCmd("c1", 3, EncodeTransfer("a", "b", 40))
	firstReply, _ := s.ApplyCommand(transfer)

	s2 := NewSessioned(NewBank())
	restoreAll(t, s2, s.ForkSnapshot(), nil)

	// Replay the transfer in the "new configuration".
	rep, dup := s2.ApplyCommand(transfer)
	if !dup {
		t.Fatal("replayed command applied twice after transfer")
	}
	if !bytes.Equal(rep, firstReply) {
		t.Fatal("cached reply lost in snapshot")
	}
	bank := s2.Inner().(*Bank)
	if bank.Total() != 100 {
		t.Fatalf("conservation violated: %d", bank.Total())
	}
	if b := bank.balance("b"); b != 40 {
		t.Fatalf("b = %d, transfer double-applied or lost", b)
	}
}

func TestSessionedSnapshotDeterministic(t *testing.T) {
	build := func() *Sessioned {
		s := NewSessioned(NewKVStore())
		s.ApplyCommand(appCmd("c2", 1, EncodePut("x", []byte("1"))))
		s.ApplyCommand(appCmd("c1", 1, EncodePut("y", []byte("2"))))
		s.ApplyCommand(appCmd("c3", 1, EncodeGet("x")))
		return s
	}
	if !sameChunks(chunksOf(build().ForkSnapshot()), chunksOf(build().ForkSnapshot())) {
		t.Fatal("snapshot not deterministic")
	}
}

func TestSessionedRestoreRejectsCorruption(t *testing.T) {
	s := NewSessioned(NewCounterMachine())
	s.ApplyCommand(appCmd("c1", 1, EncodeAdd(1)))
	sessions := s.ForkSnapshot().Chunk(0)
	s2 := NewSessioned(NewCounterMachine())
	if err := s2.RestoreChunk(0, sessions[:len(sessions)-1]); err == nil {
		t.Fatal("truncated session chunk accepted")
	}
	if err := s2.RestoreChunk(0, append(bytes.Clone(sessions), 1)); err == nil {
		t.Fatal("padded session chunk accepted")
	}
	if err := s2.RestoreChunk(-1, sessions); err == nil {
		t.Fatal("negative chunk index accepted")
	}
}

func TestSessionedClientsListing(t *testing.T) {
	s := NewSessioned(NewCounterMachine())
	s.ApplyCommand(appCmd("b", 1, EncodeAdd(1)))
	s.ApplyCommand(appCmd("a", 1, EncodeAdd(1)))
	got := s.SessionClients()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("clients: %v", got)
	}
}

// TestSessionedRoundTripProperty: restoring a fork preserves both the
// machine state and the session table for arbitrary histories (P5 for the
// wrapper).
func TestSessionedRoundTripProperty(t *testing.T) {
	f := func(seqs []uint64, deltas []uint64) bool {
		s := NewSessioned(NewCounterMachine())
		for i, seq := range seqs {
			var d uint64
			if i < len(deltas) {
				d = deltas[i] % 1000
			}
			s.ApplyCommand(appCmd("c", seq%16, EncodeAdd(d)))
		}
		s2 := NewSessioned(NewCounterMachine())
		if err := roundTrip(s, s2, nil); err != nil {
			return false
		}
		return s.LastSeq("c") == s2.LastSeq("c")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCounterMachine(t *testing.T) {
	m := &Counter{}
	if v, _ := DecodeUvarintReply(ReplyPayload(m.Apply(EncodeAdd(3)))); v != 3 {
		t.Fatalf("add: %d", v)
	}
	m.Apply(EncodeCounterSet(100))
	if v, _ := DecodeUvarintReply(ReplyPayload(m.Apply(EncodeCounterGet()))); v != 100 {
		t.Fatalf("get: %d", v)
	}
	if st := ReplyStatus(m.Apply([]byte{42})); st != StatusBadOp {
		t.Fatalf("bad op: %v", st)
	}
	m2 := &Counter{}
	if err := roundTrip(m, m2, nil); err != nil {
		t.Fatal(err)
	}
	if m2.Value() != 100 {
		t.Fatalf("restored %d", m2.Value())
	}
	chunk := m.ForkSnapshot().Chunk(0)
	if err := m2.RestoreChunk(0, []byte{0xff}); err == nil {
		t.Fatal("bad chunk accepted")
	}
	if err := m2.RestoreChunk(0, append(chunk, 0)); err == nil {
		t.Fatal("padded chunk accepted")
	}
	if err := m2.RestoreChunk(1, chunk); err == nil {
		t.Fatal("chunk index 1 accepted")
	}
	if err := m2.FinishRestore(2); err == nil {
		t.Fatal("two-chunk counter snapshot finished")
	}
}

func TestStatusStrings(t *testing.T) {
	for st, want := range map[Status]string{
		StatusOK: "ok", StatusNotFound: "not-found", StatusBadOp: "bad-op", StatusConflict: "conflict",
	} {
		if st.String() != want {
			t.Errorf("%d.String() = %q", st, st.String())
		}
	}
	if ReplyStatus(nil) != StatusBadOp {
		t.Error("empty reply status")
	}
	if ReplyPayload([]byte{1}) != nil {
		t.Error("payload of bare status")
	}
}

// An unknown client is admitted at any seq (a restarted client may
// legitimately resume mid-sequence).
func TestUnboundedTableAdmitsUnknownHighSeq(t *testing.T) {
	s := NewSessioned(NewCounterMachine())
	if _, dup := s.ApplyCommand(appCmd("a", 7, EncodeAdd(1))); dup {
		t.Fatal("unbounded table refused an unknown high-seq client")
	}
}

// Pin the per-session costs at 100k sessions: table build, dedup lookup, and
// bytes per session. The dedup fast path must stay O(1) regardless of table
// size for the megaload tests to be honest.
func BenchmarkSessionTable100k(b *testing.B) {
	const n = 100_000
	s := NewSessioned(NewCounterMachine())
	for i := 0; i < n; i++ {
		s.ApplyCommand(appCmd(types.NodeID(fmt.Sprintf("sess-%06d", i)), 1, EncodeAdd(1)))
	}
	if s.Sessions() != n {
		b.Fatalf("sessions = %d", s.Sessions())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := types.NodeID(fmt.Sprintf("sess-%06d", i%n))
		if _, dup := s.ApplyCommand(appCmd(c, 1, EncodeAdd(1))); !dup {
			b.Fatal("lookup missed")
		}
	}
}
