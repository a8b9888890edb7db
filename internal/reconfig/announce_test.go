package reconfig

import (
	"testing"
	"time"

	"repro/internal/statemachine"
	"repro/internal/transport"
	"repro/internal/types"
)

// handleAnnounce integrates a chain record as the loop does with an announce
// from a peer, and returns once it has, so from then on the record fences
// reads.
func (n *Node) handleAnnounce(rec ChainRecord) { n.onLoop(func() { n.integrate(types.Config{}, rec) }) }

// spareNode builds and starts a stand-alone node with an empty store.
func spareNode(t *testing.T, w *world, id types.NodeID) *Node {
	t.Helper()
	n := w.startNode(id, statemachine.NewCounterMachine)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	return n
}

// waitCurrent waits until n's current configuration is id: an announce hands
// a spare's jump to its apply loop.
func waitCurrent(t *testing.T, n *Node, id types.ConfigID) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); n.CurrentConfig().ID != id; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("current configuration %v, want %d", n.CurrentConfig(), id)
		}
	}
}

func rec(from types.ConfigID, fromMembers []types.NodeID, wedge types.Slot, to types.Config) ChainRecord {
	return ChainRecord{From: from, FromMembers: fromMembers, WedgeSlot: wedge, To: to}
}

func TestAnnounceIdempotent(t *testing.T) {
	w := newWorld(t, transport.Options{})
	n := spareNode(t, w, "x1")
	r := rec(1, []types.NodeID{"a", "b"}, 5, types.MustConfig(2, "a", "x1"))
	n.handleAnnounce(r)
	n.handleAnnounce(r)
	n.handleAnnounce(r)
	if got := n.Stats().InvariantViolations; got != 0 {
		t.Fatalf("idempotent announce counted as violation: %d", got)
	}
	recs := n.ChainRecords()
	if len(recs) != 1 || !recs[0].Equal(r) {
		t.Fatalf("chain: %+v", recs)
	}
	waitCurrent(t, n, 2)
}

func TestAnnounceForkDetected(t *testing.T) {
	w := newWorld(t, transport.Options{})
	n := spareNode(t, w, "x1")
	n.handleAnnounce(rec(1, []types.NodeID{"a"}, 5, types.MustConfig(2, "a", "b")))
	// A conflicting successor for the same From is a fork — impossible
	// under agreement, so it must be counted, not adopted.
	n.handleAnnounce(rec(1, []types.NodeID{"a"}, 6, types.MustConfig(2, "a", "c")))
	if got := n.Stats().InvariantViolations; got == 0 {
		t.Fatal("fork not detected")
	}
	recs := n.ChainRecords()
	if len(recs) != 1 || !recs[0].To.IsMember("b") {
		t.Fatalf("original record replaced: %+v", recs)
	}
}

func TestAnnounceOldConfigIgnoredForCursor(t *testing.T) {
	w := newWorld(t, transport.Options{})
	n := spareNode(t, w, "x1")
	n.handleAnnounce(rec(2, []types.NodeID{"a"}, 9, types.MustConfig(3, "a", "x1")))
	waitCurrent(t, n, 3)
	// A record for an OLDER part of the chain fills in history but must
	// not move the cursor backwards.
	n.handleAnnounce(rec(1, []types.NodeID{"z"}, 2, types.MustConfig(2, "a", "z")))
	if n.CurrentConfig().ID != 3 {
		t.Fatalf("cursor moved backwards: %v", n.CurrentConfig())
	}
	if len(n.ChainRecords()) != 2 {
		t.Fatalf("chain: %+v", n.ChainRecords())
	}
}

func TestAnnouncePersistsAcrossRestart(t *testing.T) {
	w := newWorld(t, transport.Options{})
	n := spareNode(t, w, "x1")
	r := rec(1, []types.NodeID{"a"}, 5, types.MustConfig(2, "a", "x1"))
	n.handleAnnounce(r)
	n.Stop()

	n2 := w.startNode("x1", statemachine.NewCounterMachine)
	if err := n2.Start(); err != nil {
		t.Fatal(err)
	}
	if n2.CurrentConfig().ID != 2 {
		t.Fatalf("restart lost announced config: %v", n2.CurrentConfig())
	}
	recs := n2.ChainRecords()
	if len(recs) != 1 || !recs[0].Equal(r) {
		t.Fatalf("restart lost chain record: %+v", recs)
	}
}

// TestGossipRepairsLostAnnounce: even with every announce dropped (the
// spare is isolated during the reconfiguration), gossip alone must
// eventually deliver the chain to a joining member.
func TestGossipRepairsLostAnnounce(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond})
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	w.submit("n1", "c", 1, statemachine.EncodeAdd(3))

	spare := spareNode(t, w, "n4")
	w.net.Isolate("n4") // all announces to n4 will be lost

	ctx, cancel := contextWithTimeout(10 * time.Second)
	defer cancel()
	if _, err := w.node("n1").Reconfigure(ctx, []types.NodeID{"n1", "n2", "n3", "n4"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if spare.Serving() {
		t.Fatal("isolated spare is serving")
	}
	w.net.Restore("n4")

	// Gossip must now pull the chain and trigger the join.
	w.waitServing("n4")
	if v := counterValue(t, w.submit("n4", "c", 2, statemachine.EncodeCounterGet())); v != 3 {
		t.Fatalf("joined state %d", v)
	}
	w.checkNoViolations()
}
