package reconfig

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/statemachine"
	"repro/internal/transport"
	"repro/internal/types"
)

// fillPending parks k submits on a node that cannot make progress (no
// quorum), so its proposal queue holds exactly k commands. Returns a cancel
// that releases the waiters.
func fillPending(t *testing.T, n *Node, k int) (release func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = n.Submit(ctx, types.NodeID(rune('a'+i))+"-filler", 1, statemachine.EncodeAdd(1))
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for n.Stats().SubmitQueueDepth < int64(k) {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: depth %d, want %d", n.Stats().SubmitQueueDepth, k)
		}
		time.Sleep(time.Millisecond)
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// quorumlessNode bootstraps {n1,n2,n3}, then stops n2 and n3: n1 keeps
// serving (accepting submits into its pending queue) but nothing commits, so
// admitted commands pend indefinitely — a deterministic way to fill the
// queue to its cap.
func quorumlessNode(t *testing.T, w *world) *Node {
	t.Helper()
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	w.stopNode("n2")
	w.stopNode("n3")
	return w.node("n1")
}

func TestAdmissionShedsPastBound(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond})
	w.opts.SubmitQueue = 4
	n1 := quorumlessNode(t, w)
	release := fillPending(t, n1, 4)
	defer release()

	// A new command past the bound is shed immediately with ErrBusy — not
	// silently dropped, not parked.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := n1.Submit(ctx, "fresh", 1, statemachine.EncodeAdd(1))
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("past-bound submit: err = %v, want ErrBusy", err)
	}
	st := n1.Stats()
	if st.ShedSubmits == 0 {
		t.Fatal("shed not counted")
	}
	if st.SubmitQueueDepth != 4 || st.SubmitQueueHigh != 4 {
		t.Fatalf("queue stats: depth=%d high=%d, want 4/4", st.SubmitQueueDepth, st.SubmitQueueHigh)
	}
}

// A retry of an already-admitted command is never shed: it attaches another
// waiter to the existing pending entry instead of consuming queue space.
func TestAdmissionAdmitsRetryOfPendingCommand(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond})
	w.opts.SubmitQueue = 2
	n1 := quorumlessNode(t, w)
	release := fillPending(t, n1, 2)
	defer release()

	// Same session+seq as a parked filler: must park (ctx timeout), not
	// bounce with ErrBusy.
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	_, err := n1.Submit(ctx, "a-filler", 1, statemachine.EncodeAdd(1))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("retry of admitted command: err = %v, want deadline exceeded", err)
	}
	if got := n1.Stats().SubmitQueueDepth; got != 2 {
		t.Fatalf("retry consumed queue space: depth %d", got)
	}
}

// The shed reply travels the wire as SubmitBusy with a non-zero RetryAfter
// hint — the contract the smart client's backoff floor relies on.
func TestShedReplyCarriesRetryAfterOnWire(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond})
	w.opts.SubmitQueue = 1
	n1 := quorumlessNode(t, w)
	release := fillPending(t, n1, 1)
	defer release()

	peer := rpc.NewPeer(w.net.Endpoint("probe"), ControlStream, nil)
	defer peer.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	cmd := types.Command{Kind: types.CmdApp, Client: "probe", Seq: 1, Data: statemachine.EncodeAdd(1)}
	resp, err := peer.Call(ctx, "n1", EncodeSubmitRequest(cmd), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecodeSubmitResult(resp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != SubmitBusy {
		t.Fatalf("status %v, want SubmitBusy", res.Status)
	}
	if res.RetryAfter <= 0 {
		t.Fatalf("RetryAfter hint missing: %v", res.RetryAfter)
	}
	if res.Config.ID == 0 {
		t.Fatal("shed reply lost the config hint")
	}
}

// Control-plane traffic is never queued behind client load: with the submit
// queue at its cap, locate and chain queries still answer (their op codes
// bypass the admission gate entirely).
func TestAdmissionDoesNotGateControlPlane(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond})
	w.opts.SubmitQueue = 1
	n1 := quorumlessNode(t, w)
	release := fillPending(t, n1, 1)
	defer release()

	peer := rpc.NewPeer(w.net.Endpoint("probe"), ControlStream, nil)
	defer peer.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := peer.Call(ctx, "n1", EncodeLocateRequest(), 0)
	if err != nil {
		t.Fatalf("locate gated by admission control: %v", err)
	}
	if res, err := DecodeLocateResult(resp); err != nil || res.Config.ID == 0 {
		t.Fatalf("locate reply broken: %v %v", res, err)
	}
	resp, err = peer.Call(ctx, "n1", EncodeChainRequest(), 0)
	if err != nil {
		t.Fatalf("chain query gated by admission control: %v", err)
	}
	if _, err := DecodeChainResult(resp); err != nil {
		t.Fatal(err)
	}
	_ = n1
}

// TestFaultFreeLoadIsProposedOnce: the re-proposal backoff of a pending
// command starts at its first proposal, so on a healthy fabric the tick
// has nothing to re-propose. A zero-valued nextRetry used to re-propose every
// command that was in flight across a tick, and each re-proposal
// was decided and applied a second time.
func TestFaultFreeLoadIsProposedOnce(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond})
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")

	const sessions, perSession = 4, 500
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(client types.NodeID) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			for seq := uint64(1); seq <= perSession; seq++ {
				if _, err := w.node("n1").Submit(ctx, client, seq, statemachine.EncodeAdd(1)); err != nil {
					t.Errorf("%s#%d: %v", client, seq, err)
					return
				}
			}
		}(types.NodeID("c" + string(rune('1'+s))))
	}
	wg.Wait()

	var resubmits, duplicates int64
	for _, id := range []types.NodeID{"n1", "n2", "n3"} {
		st := w.node(id).Stats()
		resubmits += st.Resubmits
		duplicates += st.Duplicates
	}
	// A command slower than two ticks (a scheduling hiccup) may
	// still be re-proposed; one in a hundred is far below the one in six the
	// zero-valued clock produced at this op latency.
	const ops = sessions * perSession
	if resubmits > ops/100 || duplicates > 3*ops/100 {
		t.Fatalf("%d ops on a fault-free fabric: %d re-proposals, %d duplicate applies", ops, resubmits, duplicates)
	}
	w.checkNoViolations()
}
