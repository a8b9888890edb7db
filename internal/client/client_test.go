package client

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/reconfig"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/types"
)

// fakeNode scripts a control-plane server for client unit tests.
type fakeNode struct {
	peer     *rpc.Peer
	id       types.NodeID
	submits  atomic.Int64
	behavior func(cmd types.Command) reconfig.SubmitResult
}

func newFakeNode(t *testing.T, net *transport.Network, id types.NodeID,
	behavior func(cmd types.Command) reconfig.SubmitResult) *fakeNode {
	t.Helper()
	f := &fakeNode{id: id, behavior: behavior}
	f.peer = rpc.NewPeer(net.Endpoint(id), reconfig.ControlStream,
		func(from types.NodeID, req []byte, respond func([]byte)) {
			if len(req) == 0 || req[0] != 1 { // opSubmit
				return
			}
			cmd, err := types.DecodeCommand(req[1:])
			if err != nil {
				return
			}
			f.submits.Add(1)
			res := f.behavior(cmd)
			respond(encodeResult(res))
		})
	t.Cleanup(f.peer.Close)
	return f
}

// encodeResult builds the reply exactly the way a real node would.
func encodeResult(res reconfig.SubmitResult) []byte {
	return reconfig.EncodeSubmitResult(res)
}

func applied(reply []byte, cfg types.Config, leader types.NodeID) reconfig.SubmitResult {
	return reconfig.SubmitResult{Status: reconfig.SubmitApplied, Reply: reply, Config: cfg, Leader: leader}
}

func redirect(cfg types.Config, leader types.NodeID) reconfig.SubmitResult {
	return reconfig.SubmitResult{Status: reconfig.SubmitRedirect, Config: cfg, Leader: leader}
}

func TestClientSubmitHappyPath(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	cfg := types.MustConfig(1, "n1")
	newFakeNode(t, net, "n1", func(cmd types.Command) reconfig.SubmitResult {
		return applied([]byte("reply:"+string(cmd.Data)), cfg, "n1")
	})
	c := New("c1", net.Endpoint("c1"), []types.NodeID{"n1"}, Options{})
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	reply, err := c.Submit(ctx, []byte("op"))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "reply:op" {
		t.Fatalf("reply %q", reply)
	}
	if c.KnownConfig().ID != 1 {
		t.Fatalf("config not cached: %v", c.KnownConfig())
	}
	if st := c.Stats(); st.Submits != 1 || st.Attempts < 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestClientFollowsRedirectChain(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	cfg1 := types.MustConfig(1, "n1")
	cfg2 := types.MustConfig(2, "n2")
	newFakeNode(t, net, "n1", func(cmd types.Command) reconfig.SubmitResult {
		return redirect(cfg2, "n2") // n1 was retired
	})
	n2 := newFakeNode(t, net, "n2", func(cmd types.Command) reconfig.SubmitResult {
		return applied([]byte("ok"), cfg2, "n2")
	})
	c := New("c1", net.Endpoint("c1"), []types.NodeID{"n1"}, Options{})
	defer c.Close()
	_ = cfg1

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	reply, err := c.Submit(ctx, []byte("x"))
	if err != nil || string(reply) != "ok" {
		t.Fatalf("%q %v", reply, err)
	}
	if c.KnownConfig().ID != 2 {
		t.Fatalf("client did not adopt redirect: %v", c.KnownConfig())
	}
	if c.Stats().Redirects == 0 {
		t.Fatal("redirect not counted")
	}
	if n2.submits.Load() == 0 {
		t.Fatal("redirect target never contacted")
	}
}

func TestClientIgnoresStaleConfigHint(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	cfg3 := types.MustConfig(3, "n1")
	cfg2 := types.MustConfig(2, "nOld")
	newFakeNode(t, net, "n1", func(cmd types.Command) reconfig.SubmitResult {
		// Reply carries an OLDER config hint than the client knows.
		return applied([]byte("ok"), cfg2, "")
	})
	c := New("c1", net.Endpoint("c1"), []types.NodeID{"n1"}, Options{})
	defer c.Close()
	c.dir.observe(cfg3, "")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Submit(ctx, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if c.KnownConfig().ID != 3 {
		t.Fatalf("client regressed to stale config: %v", c.KnownConfig())
	}
}

func TestClientRetriesThroughDeadSeed(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	// "dead" is registered but never answers; "live" applies.
	net.Endpoint("dead")
	newFakeNode(t, net, "live", func(cmd types.Command) reconfig.SubmitResult {
		return applied([]byte("ok"), types.MustConfig(1, "live"), "live")
	})
	c := New("c1", net.Endpoint("c1"), []types.NodeID{"dead", "live"}, Options{
		AttemptTimeout: 50 * time.Millisecond,
		RetryBackoff:   time.Millisecond,
	})
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	reply, err := c.Submit(ctx, []byte("x"))
	if err != nil || string(reply) != "ok" {
		t.Fatalf("%q %v", reply, err)
	}
}

func TestClientNoSeeds(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	c := New("c1", net.Endpoint("c1"), nil, Options{})
	defer c.Close()
	if _, err := c.Submit(context.Background(), []byte("x")); err == nil {
		t.Fatal("submit with no seeds succeeded")
	}
}

func TestClientContextCancel(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	net.Endpoint("mute") // never answers
	c := New("c1", net.Endpoint("c1"), []types.NodeID{"mute"}, Options{
		AttemptTimeout: 20 * time.Millisecond,
		RetryBackoff:   time.Millisecond,
	})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	if _, err := c.Submit(ctx, []byte("x")); err == nil {
		t.Fatal("submit against mute node succeeded")
	}
}

func TestClientSeqMonotonic(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	var seqs []uint64
	newFakeNode(t, net, "n1", func(cmd types.Command) reconfig.SubmitResult {
		seqs = append(seqs, cmd.Seq)
		return applied(nil, types.MustConfig(1, "n1"), "n1")
	})
	c := New("c1", net.Endpoint("c1"), []types.NodeID{"n1"}, Options{})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		if _, err := c.Submit(ctx, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("sequence numbers not increasing: %v", seqs)
		}
	}
}

func TestClientRecordsHistory(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	newFakeNode(t, net, "n1", func(cmd types.Command) reconfig.SubmitResult {
		return applied([]byte("reply"), types.MustConfig(1, "n1"), "n1")
	})
	rec := history.New()
	c := New("c1", net.Endpoint("c1"), []types.NodeID{"n1"}, Options{Recorder: rec})
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Submit(ctx, []byte("op")); err != nil {
		t.Fatal(err)
	}
	ops := rec.Ops()
	if len(ops) != 1 {
		t.Fatalf("want 1 recorded op, got %d", len(ops))
	}
	op := ops[0]
	if op.Outcome != history.OutcomeOk || string(op.Output) != "reply" ||
		string(op.Input) != "op" || op.Client != "c1" {
		t.Fatalf("recorded op: %+v", op)
	}
}

// A timed-out submit is AMBIGUOUS — the command may have been delivered and
// applied even though no acknowledgment came back — so the recorder must get
// Info, never Fail.
func TestClientRecordsTimeoutAsInfo(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	net.Endpoint("mute") // registered, receives, never answers
	rec := history.New()
	c := New("c1", net.Endpoint("c1"), []types.NodeID{"mute"}, Options{
		Recorder:       rec,
		AttemptTimeout: 20 * time.Millisecond,
		RetryBackoff:   time.Millisecond,
	})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	if _, err := c.Submit(ctx, []byte("x")); err == nil {
		t.Fatal("submit against mute node succeeded")
	}
	_, infoN, failN := rec.Counts()
	if infoN != 1 || failN != 0 {
		t.Fatalf("timeout must record info, not fail: info=%d fail=%d", infoN, failN)
	}
}

// A submit that never had a node to talk to certainly did not execute: Fail.
func TestClientRecordsNoSeedsAsFail(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	rec := history.New()
	c := New("c1", net.Endpoint("c1"), nil, Options{Recorder: rec})
	defer c.Close()
	if _, err := c.Submit(context.Background(), []byte("x")); err == nil {
		t.Fatal("submit with no seeds succeeded")
	}
	_, infoN, failN := rec.Counts()
	if failN != 1 || infoN != 0 {
		t.Fatalf("unsent op must record fail: info=%d fail=%d", infoN, failN)
	}
}

// Retrying the same seq after a timeout must merge into one logical op.
func TestClientRetryMergesIntoOneOp(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	newFakeNode(t, net, "n1", func(cmd types.Command) reconfig.SubmitResult {
		return applied([]byte("ok"), types.MustConfig(1, "n1"), "n1")
	})
	rec := history.New()
	c := New("c1", net.Endpoint("c1"), []types.NodeID{"n1"}, Options{Recorder: rec})
	defer c.Close()

	// First attempt: impossible deadline, times out -> info.
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	_, err := c.SubmitSeq(ctx, 1, []byte("op"))
	cancel()
	if err == nil {
		t.Fatal("nanosecond deadline succeeded")
	}
	// Retry of the SAME seq succeeds; the recorder must show one ok op.
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.SubmitSeq(ctx, 1, []byte("op")); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 1 {
		t.Fatalf("retry created a second op: %d", rec.Len())
	}
	okN, infoN, _ := rec.Counts()
	if okN != 1 || infoN != 0 {
		t.Fatalf("merged op counts: ok=%d info=%d", okN, infoN)
	}
}
