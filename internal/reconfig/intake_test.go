package reconfig

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/paxos"
	"repro/internal/rpc"
	"repro/internal/statemachine"
	"repro/internal/transport"
	"repro/internal/types"
)

// Submits are posted to the apply loop by the goroutine that read them off the
// socket; everything that may wait runs on its own. So a reconfiguration
// parked on a connection (it cannot commit: the quorum is gone) does not hold
// up the submits behind it on that connection, and the three replies a submit
// can get without a commit — duplicate, busy, redirect — come from the loop.
func TestSubmitsPassParkedControlOp(t *testing.T) {
	w := newWorldOn(t, transport.NewTCPNetwork(transport.Options{}))
	w.opts.SubmitQueue = 1
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	if err := w.startNode("s1", statemachine.NewCounterMachine).Start(); err != nil {
		t.Fatal(err)
	}
	peer := rpc.NewPeer(w.net.Endpoint("probe"), ControlStream, nil)
	defer peer.Close()
	submit := func(to types.NodeID, seq uint64) SubmitResult {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		cmd := types.Command{Kind: types.CmdApp, Client: "probe", Seq: seq, Data: statemachine.EncodeAdd(1)}
		resp, err := peer.Call(ctx, to, EncodeSubmitRequest(cmd), 0)
		if err != nil {
			t.Fatalf("submit #%d to %s: %v", seq, to, err)
		}
		res, err := DecodeSubmitResult(resp)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := submit("n1", 1); res.Status != SubmitApplied {
		t.Fatalf("first submit: %v", res.Status)
	}
	w.stopNode("n2")
	w.stopNode("n3")
	n1 := w.node("n1")

	proposals := func() int64 {
		n1.mu.Lock()
		defer n1.mu.Unlock()
		return n1.engines[n1.curID].eng.(*paxos.Replica).Stats().Proposals
	}
	before := proposals()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reconfigured := make(chan struct{})
	go func() {
		defer close(reconfigured)
		_, _ = peer.Call(ctx, "n1", EncodeReconfigRequest([]types.NodeID{"n1", "s1"}), 0)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for proposals() == before { // Reconfigure has proposed: the op is inside the node
		if time.Now().After(deadline) {
			t.Fatal("the reconfiguration request never reached the node")
		}
		time.Sleep(time.Millisecond)
	}

	if res := submit("n1", 1); res.Status != SubmitApplied {
		t.Fatalf("duplicate behind a parked reconfiguration: %v, want the recorded reply", res.Status)
	}
	release := fillPending(t, n1, 1)
	defer release()
	if res := submit("n1", 2); res.Status != SubmitBusy || res.RetryAfter <= 0 {
		t.Fatalf("past the bound behind a parked reconfiguration: %v (retry after %v), want busy", res.Status, res.RetryAfter)
	}
	if res := submit("s1", 2); res.Status != SubmitRedirect {
		t.Fatalf("submit to a spare: %v, want a redirect", res.Status)
	}
	select {
	case <-reconfigured:
		t.Fatal("the reconfiguration returned without a quorum; it was not parked")
	default:
	}
}

// A full mailbox drops a client command: the goroutine that read it off the
// socket neither waits nor takes Node.mu — the test holds n.mu, which keeps
// the loop from draining, while it fills the mailbox — and an in-process
// Submit fails with ErrBusy at once. The client's retransmission is answered
// once the loop drains again.
func TestFullMailboxDropsSubmit(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond})
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	n1 := w.node("n1")
	peer := rpc.NewPeer(w.net.Endpoint("probe"), ControlStream, nil)
	defer peer.Close()
	cmd := types.Command{Kind: types.CmdApp, Client: "probe", Seq: 1, Data: statemachine.EncodeAdd(1)}

	n1.mu.Lock()
	for n1.mailbox.TryPut(loopMsg{}) { // malformed commands: the loop drops them
	}
	var answered atomic.Bool
	returned := make(chan struct{})
	go func() {
		n1.handleRPC("probe", EncodeSubmitRequest(cmd), func([]byte) { answered.Store(true) })
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(time.Second):
		n1.mu.Unlock()
		t.Fatal("a submit to a full mailbox held up the goroutine that delivered it")
	}
	if _, err := n1.Submit(context.Background(), "probe", 1, cmd.Data); !errors.Is(err, ErrBusy) {
		n1.mu.Unlock()
		t.Fatalf("in-process submit to a full mailbox: %v, want ErrBusy", err)
	}
	type result struct {
		resp []byte
		err  error
	}
	called := make(chan result, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		resp, err := peer.Call(ctx, "n1", EncodeSubmitRequest(cmd), 20*time.Millisecond)
		called <- result{resp, err}
	}()
	time.Sleep(50 * time.Millisecond) // the call's first frames find the mailbox full
	n1.mu.Unlock()

	r := <-called
	if r.err != nil {
		t.Fatalf("the client's retransmission after the drain: %v", r.err)
	}
	res, err := DecodeSubmitResult(r.resp)
	if err != nil || res.Status != SubmitApplied {
		t.Fatalf("the client's retransmission after the drain: %+v, %v; want applied", res, err)
	}
	if got := counterValue(t, res.Reply); got != 1 {
		t.Fatalf("counter %d after one add", got)
	}
	if answered.Load() {
		t.Fatal("the dropped submit was answered")
	}
}
