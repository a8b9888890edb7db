package reconfig

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/statemachine"
	"repro/internal/transport"
	"repro/internal/types"
)

// These tests target the correctness core of the read fast path: wedging a
// configuration must invalidate its read path immediately, even when the
// deposed leader holds a lease whose term is deliberately far longer than any
// election or reconfiguration. The fence-enabled case must refuse the read;
// the testNoReadFence companion proves the fence is load-bearing by showing
// that without it the same read IS answered — from stale state.

// engineLeaseReads reports how many reads the node's current engine answered
// under a lease, i.e. with no confirmation round.
func engineLeaseReads(n *Node) int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if run, ok := n.engines[n.curID]; ok {
		return run.eng.Stats().LeaseReads
	}
	return 0
}

// findLeaderNode waits until some serving node believes itself leader.
func findLeaderNode(t *testing.T, w *world, ids ...types.NodeID) *Node {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		for _, id := range ids {
			n := w.node(id)
			if n != nil && n.Serving() && n.LeaderHint() == id {
				return n
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no leader emerged")
	return nil
}

func TestWedgeFencesLeaseReads(t *testing.T) {
	testWedgeFence(t, false)
}

func TestWedgeFenceDisabledServesStaleRead(t *testing.T) {
	testWedgeFence(t, true)
}

func testWedgeFence(t *testing.T, disableFence bool) {
	w := newWorld(t, transport.Options{
		BaseLatency: 100 * time.Microsecond,
		Jitter:      100 * time.Microsecond,
		Seed:        7,
	})
	w.opts.Reads = ReadModeLease
	// A pathologically long lease (an hour of ticks) and a node that never
	// jumps forward on staleness: expiry can never rescue correctness here,
	// only the wedge fence can.
	w.opts.Paxos.LeaseTicks = 3_600_000
	w.opts.StaleJumpTicks = 1 << 30
	w.bootstrap(statemachine.NewKVMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	spare := w.startNode("n4", statemachine.NewKVMachine)
	if err := spare.Start(); err != nil {
		t.Fatal(err)
	}

	w.submit("n1", "wr", 1, statemachine.EncodePut("k", []byte("old")))
	leader := findLeaderNode(t, w, "n1", "n2", "n3")
	leader.mu.Lock()
	leader.testNoReadFence = disableFence
	leader.mu.Unlock()

	// Pump reads at the leader until one is answered under the lease, so we
	// know the zero-round tier is live before the wedge.
	read := statemachine.EncodeGet("k")
	var preWedgeReply []byte
	seq := uint64(1)
	deadline := time.Now().Add(15 * time.Second)
	for engineLeaseReads(leader) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no read was ever served under the lease")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		reply, err := leader.Submit(ctx, "rd", seq, read)
		cancel()
		seq++
		if err == nil {
			preWedgeReply = reply
		}
	}
	if preWedgeReply == nil {
		t.Fatal("lease read produced no reply")
	}

	// Partition the leader away. Its lease stays "valid" for the next hour;
	// nothing it can observe on its own would stop it serving reads.
	w.net.Isolate(leader.Self())
	var survivors []types.NodeID
	for _, id := range []types.NodeID{"n1", "n2", "n3"} {
		if id != leader.Self() {
			survivors = append(survivors, id)
		}
	}

	// The survivors (a quorum of config 1) reconfigure the old leader out.
	members := append(append([]types.NodeID{}, survivors...), "n4")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var rerr error = ErrNotServing
	for time.Now().Before(deadline.Add(15 * time.Second)) {
		attempt, acancel := context.WithTimeout(ctx, 8*time.Second)
		_, rerr = w.node(survivors[0]).Reconfigure(attempt, members)
		acancel()
		if rerr == nil {
			break
		}
	}
	if rerr != nil {
		t.Fatalf("survivors could not reconfigure: %v", rerr)
	}

	// The successor configuration moves on and overwrites the key, making
	// any answer from the deposed leader's machine observably stale.
	w.submit(survivors[0], "wr", 2, statemachine.EncodePut("k", []byte("new")))

	// Hand the isolated leader the wedge evidence directly — the chain
	// record for its own configuration. Because it is still executing config
	// 1, handleAnnounce does not advance curID; the record alone must fence.
	var rec ChainRecord
	for _, r := range w.node(survivors[0]).ChainRecords() {
		if r.From == 1 {
			rec = r
		}
	}
	if rec.From != 1 {
		t.Fatal("no chain record for config 1 on the survivors")
	}
	leader.handleAnnounce(rec)

	rctx, rcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer rcancel()
	reply, err := leader.Submit(rctx, "rd", seq, read)
	if disableFence {
		// UNSAFE mode: the lease is valid, the engine still believes it
		// leads, and with the fence off nothing blocks the read — it is
		// served from pre-wedge state even though config 2 has moved on.
		if err != nil {
			t.Fatalf("fence disabled: stale lease read was refused: %v", err)
		}
		if !bytes.Equal(reply, preWedgeReply) {
			t.Fatalf("fence disabled: reply %q, want the stale pre-wedge value %q", reply, preWedgeReply)
		}
		return
	}
	if !errors.Is(err, ErrNotServing) {
		t.Fatalf("wedged leader answered a fast read: reply %q err %v (want ErrNotServing)", reply, err)
	}
	if fenced := leader.Stats().ReadFenced; fenced == 0 {
		t.Fatal("refused read was not counted as fenced")
	}
}
