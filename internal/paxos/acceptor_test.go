package paxos

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// bareReplica builds an unstarted replica whose acceptor logic can be driven
// directly (the event loop is not running, so no concurrency).
func bareReplica(t *testing.T) (*Replica, *storage.MemStore) {
	t.Helper()
	net := transport.NewNetwork(transport.Options{})
	t.Cleanup(net.Close)
	st := storage.NewMem()
	r, err := New(types.MustConfig(1, "n1", "n2", "n3"), "n1", net.Endpoint("n1"), st, 1, fastOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	return r, st
}

// proposal is the proposal of m.Cmd at (m.Slot, m.Ballot) as a proposer builds
// it: the entry decoded from its one encoding, and that encoding.
func proposal(m acceptedEntry) (acceptedEntry, []byte) {
	rec, e := encodeAccept(m.Slot, m.Ballot, []types.Command{m.Cmd})
	return e, rec
}

// acceptFrame is the KindAccept payload (and acc/ record) of proposal(m).
func acceptFrame(m acceptedEntry) []byte {
	_, rec := proposal(m)
	return rec
}

func TestAcceptorPromiseMonotonic(t *testing.T) {
	r, _ := bareReplica(t)
	b1 := types.Ballot{Round: 1, Leader: "n1"}
	b2 := types.Ballot{Round: 2, Leader: "n2"}

	pm := r.acceptPrepare(prepareMsg{Ballot: b1, From: 1})
	if !pm.OK {
		t.Fatal("first prepare rejected")
	}
	pm = r.acceptPrepare(prepareMsg{Ballot: b2, From: 1})
	if !pm.OK {
		t.Fatal("higher prepare rejected")
	}
	// A lower prepare must now be rejected and name the blocker.
	pm = r.acceptPrepare(prepareMsg{Ballot: b1, From: 1})
	if pm.OK {
		t.Fatal("lower prepare accepted after higher promise")
	}
	if !pm.Promised.Equal(b2) {
		t.Fatalf("blocker %v, want %v", pm.Promised, b2)
	}
	// Re-promising the exact same ballot is idempotent (resends).
	pm = r.acceptPrepare(prepareMsg{Ballot: b2, From: 1})
	if !pm.OK {
		t.Fatal("same-ballot prepare rejected")
	}
}

func TestAcceptorRejectsAcceptBelowPromise(t *testing.T) {
	r, _ := bareReplica(t)
	high := types.Ballot{Round: 5, Leader: "n3"}
	low := types.Ballot{Round: 1, Leader: "n1"}
	r.acceptPrepare(prepareMsg{Ballot: high, From: 1})

	am := r.acceptAccept(proposal(acceptedEntry{Ballot: low, Slot: 1, Cmd: types.NoopCommand()}))
	if am.OK {
		t.Fatal("accept below promise succeeded")
	}
	if !am.Promised.Equal(high) {
		t.Fatalf("blocker %v", am.Promised)
	}
	am = r.acceptAccept(proposal(acceptedEntry{Ballot: high, Slot: 1, Cmd: types.NoopCommand()}))
	if !am.OK {
		t.Fatal("accept at promise rejected")
	}
}

func TestAcceptorAcceptRaisesPromise(t *testing.T) {
	r, _ := bareReplica(t)
	b := types.Ballot{Round: 3, Leader: "n2"}
	if am := r.acceptAccept(proposal(acceptedEntry{Ballot: b, Slot: 4, Cmd: types.NoopCommand()})); !am.OK {
		t.Fatal("fresh accept rejected")
	}
	// The accept implies a promise: a lower prepare must now fail.
	if pm := r.acceptPrepare(prepareMsg{Ballot: types.Ballot{Round: 2, Leader: "n9"}, From: 1}); pm.OK {
		t.Fatal("prepare below accepted ballot succeeded")
	}
}

func TestAcceptorStatePersistsBeforeReply(t *testing.T) {
	r, st := bareReplica(t)
	b := types.Ballot{Round: 7, Leader: "n2"}
	r.acceptPrepare(prepareMsg{Ballot: b, From: 1})
	if _, ok, _ := st.Get("pxs/1/promised"); !ok {
		t.Fatal("promise not persisted")
	}
	cmd := types.Command{Kind: types.CmdApp, Client: "c", Seq: 1, Data: []byte("x")}
	r.acceptAccept(proposal(acceptedEntry{Ballot: b, Slot: 3, Cmd: cmd}))
	kvs, _ := st.Scan("pxs/1/acc/")
	if len(kvs) != 1 {
		t.Fatalf("accepted entries persisted: %d", len(kvs))
	}

	// A replica recovered from this store is bound by the same promise.
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	r2, err := New(types.MustConfig(1, "n1", "n2", "n3"), "n1", net.Endpoint("n1"), st, 1, fastOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	if pm := r2.acceptPrepare(prepareMsg{Ballot: types.Ballot{Round: 6, Leader: "n9"}, From: 1}); pm.OK {
		t.Fatal("recovered acceptor forgot its promise")
	}
	pm := r2.acceptPrepare(prepareMsg{Ballot: types.Ballot{Round: 8, Leader: "n9"}, From: 1})
	if !pm.OK || len(pm.Accepted) != 1 || !pm.Accepted[0].Cmd.Equal(cmd) {
		t.Fatalf("recovered acceptor lost accepted entry: %+v", pm)
	}
}

func TestPromiseReturnsOnlyRequestedSuffix(t *testing.T) {
	r, _ := bareReplica(t)
	b := types.Ballot{Round: 1, Leader: "n1"}
	for slot := types.Slot(1); slot <= 10; slot++ {
		r.acceptAccept(proposal(acceptedEntry{Ballot: b, Slot: slot, Cmd: types.NoopCommand()}))
	}
	pm := r.acceptPrepare(prepareMsg{Ballot: types.Ballot{Round: 2, Leader: "n2"}, From: 7})
	if len(pm.Accepted) != 4 { // slots 7..10
		t.Fatalf("suffix length %d", len(pm.Accepted))
	}
	for _, e := range pm.Accepted {
		if e.Slot < 7 {
			t.Fatalf("entry below From: %d", e.Slot)
		}
	}
}

// TestAcceptorPropertyNeverRegresses drives random prepare/accept sequences
// and checks the fundamental acceptor invariant: the promised ballot never
// decreases, and a successful operation's ballot is >= every earlier
// successful operation's ballot.
func TestAcceptorPropertyNeverRegresses(t *testing.T) {
	f := func(seed int64, opsRaw []uint16) bool {
		r, _ := bareReplica(t)
		rng := rand.New(rand.NewSource(seed))
		prevPromised := types.Ballot{}
		for _, raw := range opsRaw {
			b := types.Ballot{Round: uint64(raw % 8), Leader: types.NodeID([]string{"n1", "n2", "n3"}[raw%3])}
			if rng.Intn(2) == 0 {
				pm := r.acceptPrepare(prepareMsg{Ballot: b, From: 1})
				if pm.OK && b.Less(prevPromised) {
					return false // accepted a regression
				}
			} else {
				am := r.acceptAccept(proposal(acceptedEntry{Ballot: b, Slot: types.Slot(raw%16 + 1), Cmd: types.NoopCommand()}))
				if am.OK && b.Less(prevPromised) {
					return false
				}
			}
			if r.promised.Less(prevPromised) {
				return false // promise regressed
			}
			prevPromised = r.promised
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsDefaults(t *testing.T) {
	want := Options{TickInterval: 2 * time.Millisecond, batchSize: 16}
	if got := (Options{}).withDefaults(); got != want {
		t.Fatalf("zero Options normalizes to\n%+v, want\n%+v", got, want)
	}
}

// TestElectionDeadlineBand pins the engine's election timing: the lexically
// smallest member competes on its first tick, and every other deadline is a
// draw from [10, 20] ticks that reaches both ends of the band.
func TestElectionDeadlineBand(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	t.Cleanup(net.Close)
	cfg := types.MustConfig(1, "n1", "n2", "n3")
	lo, hi := electionTimeoutTicks+electionJitterTicks, 0
	for seed := int64(0); seed < 200; seed++ {
		for _, id := range cfg.Members {
			r, err := New(cfg, id, net.Endpoint(id), storage.NewMem(), 1, fastOpts(seed))
			if err != nil {
				t.Fatal(err)
			}
			r.armFirstElection()
			if id == cfg.Members[0] {
				if r.electionDeadline != 1 {
					t.Fatalf("seed %d: %s's first deadline %d, want 1", seed, id, r.electionDeadline)
				}
				r.resetElectionDeadline()
			}
			for i := 0; i < 5; i++ {
				d := r.electionDeadline
				if d < 10 || d > 20 {
					t.Fatalf("seed %d: %s's deadline %d outside [10, 20]", seed, id, d)
				}
				lo, hi = min(lo, d), max(hi, d)
				r.resetElectionDeadline()
			}
		}
	}
	if lo != 10 || hi != 20 {
		t.Fatalf("deadlines spanned [%d, %d], want [10, 20]", lo, hi)
	}
}
