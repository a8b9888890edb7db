package reconfig

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/paxos"
	"repro/internal/rpc"
	"repro/internal/smr"
	"repro/internal/statemachine"
	"repro/internal/transport"
	"repro/internal/types"
)

// Every request is posted to the apply loop by the goroutine that read it off
// the socket, and a reconfiguration waits on the loop as a waiter, not on a
// goroutine. So a reconfiguration parked on a connection (it cannot commit:
// the quorum is gone) does not hold up the submits behind it on that
// connection, and the three replies a submit can get without a commit —
// duplicate, busy, redirect — come from the loop.
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

	proposals := func() (p int64) {
		n1.inspect(func() { p = n1.engines[n1.curID].eng.(*paxos.Replica).Stats().Proposals })
		return p
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
	for proposals() == before { // the loop has proposed: the op is inside the node
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

// stallLoop parks n's apply loop inside a posted function until release is
// called (or the test ends), so the loop drains nothing meanwhile.
func stallLoop(t *testing.T, n *Node) (release func()) {
	t.Helper()
	entered, gate := make(chan struct{}), make(chan struct{})
	if !n.post(func() {
		close(entered)
		<-gate
	}) {
		t.Fatal("the node stopped")
	}
	<-entered
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release) // before the world stops the node
	return release
}

// A full mailbox drops a client command: the goroutine that read it off the
// socket does not wait — the test parks the loop, so it drains nothing, while
// it fills the mailbox — and an in-process Submit fails with ErrBusy at once.
// The client's retransmission is answered once the loop drains again.
func TestFullMailboxDropsSubmit(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond})
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	n1 := w.node("n1")
	peer := rpc.NewPeer(w.net.Endpoint("probe"), ControlStream, nil)
	defer peer.Close()
	cmd := types.Command{Kind: types.CmdApp, Client: "probe", Seq: 1, Data: statemachine.EncodeAdd(1)}

	release := stallLoop(t, n1)
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
		t.Fatal("a submit to a full mailbox held up the goroutine that delivered it")
	}
	if _, err := n1.Submit(context.Background(), "probe", 1, cmd.Data); !errors.Is(err, ErrBusy) {
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
	release()

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

// within runs f and reports how long it took, a second when it takes longer.
func within(f func()) time.Duration {
	begin, done := time.Now(), make(chan struct{})
	go func() {
		f()
		close(done)
	}()
	select {
	case <-done:
		return time.Since(begin)
	case <-time.After(time.Second):
		return time.Second
	}
}

// Reconfiguration requests that cannot commit (the quorum is gone) wait on
// the loop as waiters: eight of them parked on a node start no goroutine each.
func TestParkedReconfigurationsStartNoGoroutines(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond})
	n1 := quorumlessNode(t, w)
	const k = 8
	var answered atomic.Int32
	before := runtime.NumGoroutine()
	for i := range k {
		req := EncodeReconfigRequest([]types.NodeID{"n1", types.NodeID(fmt.Sprintf("s%d", i))})
		n1.handleRPC("probe", req, func([]byte) { answered.Add(1) })
	}
	rise := runtime.NumGoroutine() - before // a goroutine per request is running by now
	n1.onLoop(func() {})                    // behind the requests in the mailbox
	var parked int
	n1.inspect(func() { parked = len(n1.reconfigs) })
	t.Logf("%d parked reconfigurations: %d goroutines more", parked, rise)
	if parked != k || answered.Load() != 0 {
		t.Fatalf("%d reconfigurations parked and %d answered, want %d and 0", parked, answered.Load(), k)
	}
	if rise >= k {
		t.Fatalf("%d parked reconfigurations took %d goroutines more, want fewer than %d", k, rise, k)
	}
}

// The inspectors the client rotation calls on every pick read the view the
// loop published, so they answer at once while the loop is parked.
func TestInspectorsAnswerWithTheLoopParked(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond})
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	w.submit("n1", "c1", 1, statemachine.EncodeAdd(1))
	n1 := w.node("n1")
	stallLoop(t, n1)
	for name, f := range map[string]func() bool{
		"Serving":       n1.Serving,
		"Accepting":     n1.Accepting,
		"CurrentConfig": func() bool { return n1.CurrentConfig().ID == 1 },
		"LeaderHint":    func() bool { n1.LeaderHint(); return true },
	} {
		var ok bool
		if took := within(func() { ok = f() }); took > 50*time.Millisecond {
			t.Errorf("%s took %v with the loop parked, want <= 50ms", name, took)
		} else if !ok {
			t.Errorf("%s reported a node that does not serve configuration 1", name)
		}
	}
}

// A stopped node's Stats return at once with the counts it stopped with.
func TestStoppedNodeReportsItsFinalStats(t *testing.T) {
	n, f := scriptedNode(t, 100)
	f.engine(t, 1).decs <- smr.Decision{Slot: 1, Cmd: add(1)}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, applied := n.AppliedSlot(); applied == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slot 1 was never applied")
		}
	}
	before := n.Stats()
	n.Stop()
	var after NodeStats
	if took := within(func() { after = n.Stats() }); took >= time.Second {
		t.Fatalf("Stats of a stopped node took %v", took)
	}
	if after != before || after.Applied != 1 {
		t.Fatalf("a stopped node's Stats %+v, want %+v with one apply", after, before)
	}
}

// A Reconfigure whose caller's context ends is dropped by the loop at its
// next tick: it holds no waiter for it.
func TestCancelledReconfigureLeavesNoWaiter(t *testing.T) {
	n, _ := scriptedNode(t, 100) // its engine decides nothing
	waiters := func() (k int, tick int64) {
		n.inspect(func() { k, tick = len(n.reconfigs), n.tick })
		return k, tick
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := n.Reconfigure(ctx, []types.NodeID{"n1", "n2"})
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for k, _ := waiters(); k != 1; k, _ = waiters() {
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters, want the Reconfigure's", k)
		}
		time.Sleep(time.Millisecond)
	}
	_, cancelled := waiters()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("a cancelled Reconfigure returned %v", err)
	}
	for k, tick := waiters(); ; k, tick = waiters() {
		if k == 0 {
			if tick-cancelled > 3 {
				t.Fatalf("the loop held the cancelled waiter for %d ticks", tick-cancelled)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the loop still holds the waiter of a cancelled Reconfigure")
		}
		time.Sleep(time.Millisecond)
	}
}
