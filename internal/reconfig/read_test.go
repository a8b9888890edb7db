package reconfig

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/statemachine"
	"repro/internal/transport"
	"repro/internal/types"
)

// These tests target the correctness core of the read fast path: wedging a
// configuration must invalidate its read path at once, even on a deposed
// leader that has not learned the wedge through its own log and still
// believes it leads.

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

// TestWedgeFencesReads isolates a read-index leader, lets the survivors
// reconfigure it out, and hands it the chain record for its own
// configuration. The next read must be refused by the wedge fence — the chain
// record clause of readFenced — and at once: without that clause the
// read is not served stale, but its probe round can never complete on the
// isolated leader, so it hangs until its deadline instead of redirecting.
func TestWedgeFencesReads(t *testing.T) {
	w := newWorld(t, transport.Options{
		BaseLatency: 100 * time.Microsecond,
		Jitter:      100 * time.Microsecond,
		Seed:        7,
	})
	w.bootstrap(statemachine.NewKVMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	spare := w.startNode("n4", statemachine.NewKVMachine)
	if err := spare.Start(); err != nil {
		t.Fatal(err)
	}

	w.submit("n1", "wr", 1, statemachine.EncodePut("k", []byte("old")))
	leader := findLeaderNode(t, w, "n1", "n2", "n3")

	// Pump reads at the leader until one is served by the fast path, so we
	// know the read-index path is live before the wedge.
	read := statemachine.EncodeGet("k")
	seq := uint64(1)
	deadline := time.Now().Add(15 * time.Second)
	for leader.Stats().FastReads == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no read was ever served by the fast path")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, _ = leader.Submit(ctx, "rd", seq, read)
		cancel()
		seq++
	}

	// Partition the leader away. Nothing it can observe on its own tells it
	// that it no longer leads.
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

	// The successor configuration moves on and overwrites the key.
	w.submit(survivors[0], "wr", 2, statemachine.EncodePut("k", []byte("new")))

	// Hand the isolated leader the wedge evidence directly — the chain
	// record for its own configuration. Because it is still executing config
	// 1, handleAnnounce does not advance curID; the record alone must fence.
	// The read below lands microseconds later, far inside the stale-jump
	// grace (staleJumpTicks ticks), so nothing else can stop it.
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

	fenced := leader.Stats().ReadFenced
	rctx, rcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer rcancel()
	start := time.Now()
	reply, err := leader.Submit(rctx, "rd", seq, read)
	took := time.Since(start)
	t.Logf("the wedged leader's read returned in %v", took)
	if !errors.Is(err, ErrNotServing) {
		t.Fatalf("wedged leader's read: reply %q err %v after %v, want ErrNotServing", reply, err, took)
	}
	if got := leader.Stats().ReadFenced; got != fenced+1 {
		t.Fatalf("ReadFenced went %d -> %d, want one refused read counted", fenced, got)
	}
	if took > time.Second {
		t.Fatalf("refusal took %v, want it within 1s", took)
	}
}
