package cluster

import (
	"context"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/statemachine"
	"repro/internal/types"
)

func TestClusterBootstrapAndClient(t *testing.T) {
	c := groupCluster(t, Config{})
	if err := c.CreateGroup(0, []types.NodeID{"n1", "n2", "n3"}, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.WaitServing(ctx, 0, "n1", "n2", "n3"); err != nil {
		t.Fatal(err)
	}

	cl := c.NewClient(client.Options{})
	reply, err := cl.Submit(ctx, statemachine.EncodePut("k", []byte("v")))
	if err != nil {
		t.Fatal(err)
	}
	if statemachine.ReplyStatus(reply) != statemachine.StatusOK {
		t.Fatalf("put status %v", statemachine.ReplyStatus(reply))
	}
	reply, err = cl.Submit(ctx, statemachine.EncodeGet("k"))
	if err != nil {
		t.Fatal(err)
	}
	if string(statemachine.ReplyPayload(reply)) != "v" {
		t.Fatalf("get %q", statemachine.ReplyPayload(reply))
	}
	if cl.KnownConfig().ID != 1 {
		t.Fatalf("client cached config %v", cl.KnownConfig())
	}
	if c.TotalViolations() != 0 {
		t.Fatal("violations")
	}
}

func TestClientFollowsReconfiguration(t *testing.T) {
	c := groupCluster(t, Config{})
	if err := c.CreateGroup(0, []types.NodeID{"n1", "n2", "n3"}, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := c.WaitServing(ctx, 0, "n1", "n2", "n3"); err != nil {
		t.Fatal(err)
	}

	cl := c.NewClient(client.Options{})
	if _, err := cl.Submit(ctx, statemachine.EncodePut("x", []byte("1"))); err != nil {
		t.Fatal(err)
	}

	// Full replacement: the client's cached config becomes useless and it
	// must discover the new one via redirects.
	if _, err := c.Reconfigure(ctx, 0, []types.NodeID{"m1", "m2", "m3"}); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitServing(ctx, 0, "m1", "m2", "m3"); err != nil {
		t.Fatal(err)
	}
	reply, err := cl.Submit(ctx, statemachine.EncodeGet("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(statemachine.ReplyPayload(reply)) != "1" {
		t.Fatalf("get after replacement %q", statemachine.ReplyPayload(reply))
	}
	if cl.KnownConfig().ID != 2 {
		t.Fatalf("client did not follow: %v", cl.KnownConfig())
	}
	if cl.Stats().Redirects == 0 {
		t.Fatal("expected at least one redirect")
	}
	if c.TotalViolations() != 0 {
		t.Fatal("violations")
	}
}

func TestClientReconfigureAndChainRPC(t *testing.T) {
	c := groupCluster(t, Config{})
	if err := c.CreateGroup(0, []types.NodeID{"n1", "n2", "n3"}, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := c.WaitServing(ctx, 0, "n1", "n2", "n3"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddReplica(0, "n4"); err != nil {
		t.Fatal(err)
	}

	cl := c.NewClient(client.Options{})
	cfg, err := cl.Reconfigure(ctx, []types.NodeID{"n1", "n2", "n3", "n4"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ID != 2 || !cfg.IsMember("n4") {
		t.Fatalf("reconfigure result %v", cfg)
	}

	chain, err := cl.Chain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Initial.ID != 1 || len(chain.Records) != 1 || chain.Records[0].To.ID != 2 {
		t.Fatalf("chain %+v", chain)
	}

	located, err := cl.Locate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if located.ID != 2 {
		t.Fatalf("locate %v", located)
	}
}

func TestCrashRestartCycle(t *testing.T) {
	c := groupCluster(t, Config{})
	if err := c.CreateGroup(0, []types.NodeID{"n1", "n2", "n3"}, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := c.WaitServing(ctx, 0, "n1", "n2", "n3"); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(client.Options{})
	if _, err := cl.Submit(ctx, statemachine.EncodePut("a", []byte("1"))); err != nil {
		t.Fatal(err)
	}

	c.Crash("n2")
	if c.Node(0, "n2") != nil {
		t.Fatal("crashed node still listed")
	}
	if !c.Network().Endpoint("n2").Paused() {
		t.Fatal("crashed process still hears the network")
	}
	if _, err := c.AddReplica(0, "n2"); err == nil {
		t.Fatal("replica started on a crashed process")
	}
	if _, err := cl.Submit(ctx, statemachine.EncodePut("b", []byte("2"))); err != nil {
		t.Fatal(err)
	}

	if err := c.Restart("n2"); err != nil {
		t.Fatal(err)
	}
	if c.Network().Endpoint("n2").Paused() {
		t.Fatal("restarted process still paused")
	}
	if err := c.WaitServing(ctx, 0, "n2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart("n2"); err == nil {
		t.Fatal("double restart allowed")
	}
	if n, err := c.AddReplica(0, "n2"); err != nil || n != c.Node(0, "n2") {
		t.Fatalf("AddReplica over a running replica: %v %v", n, err)
	}
	if c.TotalViolations() != 0 {
		t.Fatal("violations")
	}
}

func TestClientSubmitSeqIdempotent(t *testing.T) {
	c := groupCluster(t, Config{Factory: statemachine.NewCounterMachine})
	if err := c.CreateGroup(0, []types.NodeID{"n1", "n2", "n3"}, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := c.WaitServing(ctx, 0, "n1", "n2", "n3"); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(client.Options{})
	r1, err := cl.SubmitSeq(ctx, 1, statemachine.EncodeAdd(5))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cl.SubmitSeq(ctx, 1, statemachine.EncodeAdd(5)) // same seq: no double apply
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := statemachine.DecodeUvarintReply(statemachine.ReplyPayload(r1))
	v2, _ := statemachine.DecodeUvarintReply(statemachine.ReplyPayload(r2))
	if v1 != 5 || v2 != 5 {
		t.Fatalf("replies %d %d", v1, v2)
	}
	r3, err := cl.SubmitSeq(ctx, 2, statemachine.EncodeCounterGet())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := statemachine.DecodeUvarintReply(statemachine.ReplyPayload(r3)); v != 5 {
		t.Fatalf("counter %d", v)
	}
}

func TestClientClosedErrors(t *testing.T) {
	c := groupCluster(t, Config{})
	if err := c.CreateGroup(0, []types.NodeID{"n1"}, nil); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(client.Options{})
	cl.Close()
	if _, err := cl.Submit(context.Background(), statemachine.EncodeGet("k")); err != client.ErrClosed {
		t.Fatalf("err %v", err)
	}
}

// TestFullStackOverTCP runs the complete reconfigurable service — consensus,
// control plane, state transfer, client RPC — over real loopback sockets.
func TestFullStackOverTCP(t *testing.T) {
	c := groupCluster(t, Config{TCP: true})
	if err := c.CreateGroup(0, []types.NodeID{"n1", "n2", "n3"}, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.WaitServing(ctx, 0, "n1", "n2", "n3"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddReplica(0, "n4"); err != nil {
		t.Fatal(err)
	}

	cl := c.NewClient(client.Options{})
	if _, err := cl.Submit(ctx, statemachine.EncodePut("tcp-key", []byte("tcp-value"))); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Reconfigure(ctx, []types.NodeID{"n1", "n2", "n4"}); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitServing(ctx, 0, "n4"); err != nil {
		t.Fatal(err)
	}
	reply, err := cl.Submit(ctx, statemachine.EncodeGet("tcp-key"))
	if err != nil {
		t.Fatal(err)
	}
	if string(statemachine.ReplyPayload(reply)) != "tcp-value" {
		t.Fatalf("state lost over tcp: %q", statemachine.ReplyPayload(reply))
	}
	if c.TotalViolations() != 0 {
		t.Fatal("violations over tcp")
	}
}
