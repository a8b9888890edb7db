package reconfig

import (
	"testing"

	"repro/internal/paxos"
	"repro/internal/smr"
	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// bareApplyNode is a single-member node of configuration 1 that was never
// started — no apply loop, no housekeeping, an engine that never runs — with
// counter increments decided at slots 1..slots parked in the engine's buffer,
// so a test drives the apply stage by hand, one step at a time.
func bareApplyNode(t *testing.T, net *transport.Network, slots int) *Node {
	t.Helper()
	n, err := NewNode(NodeConfig{
		Self:     "n1",
		Endpoint: net.Endpoint("n1"),
		Store:    storage.NewMem(),
		Factory:  statemachine.NewCounterMachine,
		Opts:     fastNodeOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := types.MustConfig(1, "n1")
	eng, err := paxos.New(cfg, n.self, n.ep, n.store, 1, n.opts.Paxos)
	if err != nil {
		t.Fatal(err)
	}
	run := &engineRun{id: 1, cfg: cfg, eng: eng}
	for s := 1; s <= slots; s++ {
		run.buffered = append(run.buffered, smr.Decision{
			Slot: types.Slot(s),
			Cmd:  types.Command{Kind: types.CmdApp, Client: "c", Seq: uint64(s), Data: statemachine.EncodeAdd(1)},
		})
	}
	n.configs[1], n.curID, n.engines[1] = cfg, 1, run
	n.machine, n.initialized = statemachine.NewSessioned(n.factory()), true
	return n
}

// FOUND (f): a pump round pops its decisions before it executes them with the
// mutex released. A catch-up snapshot of the same configuration installed
// meanwhile moves the epoch, the round's results are discarded — and the
// popped decisions above the snapshot's base must not go with them, because
// the engine delivers each slot once.
func TestInstallDuringApplyRoundKeepsPoppedDecisions(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	t.Cleanup(net.Close)

	donor := bareApplyNode(t, net, 5)
	donor.pump()
	m, chunks := snapshotOf(donor, 5)

	n := bareApplyNode(t, net, 10)
	r, ok := n.collectRound()
	if !ok || len(r.units) != 10 {
		t.Fatalf("collected %d units (ok=%v), want 10", len(r.units), ok)
	}
	if !n.install(1, m, chunks) {
		t.Fatal("catch-up install at base 5 was refused")
	}
	n.executeRound(r)
	if _, at := n.AppliedSlot(); at != 5 {
		t.Fatalf("applied slot %d after the raced round, want the snapshot's base 5", at)
	}
	n.pump()

	if _, at := n.AppliedSlot(); at != 10 {
		t.Fatalf("applied slot %d, want 10: the raced round's decisions above the base were lost", at)
	}
	if got := counterValue(t, n.Machine().ApplyRead(statemachine.EncodeCounterGet())); got != 10 {
		t.Fatalf("counter %d, want 10 (5 from the snapshot, 6..10 applied once)", got)
	}
	if st := n.Stats(); st.InvariantViolations != 0 || st.CatchupFetches != 1 {
		t.Fatalf("violations %d, catch-up installs %d", st.InvariantViolations, st.CatchupFetches)
	}
}
