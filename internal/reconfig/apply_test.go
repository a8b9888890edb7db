package reconfig

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/smr"
	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// scriptedEngine is a one-member engine whose decisions the test writes into
// its channel itself; it proposes, reads and truncates nothing.
type scriptedEngine struct {
	decs     chan smr.Decision
	stopOnce sync.Once
}

func (e *scriptedEngine) Start() error                   { return nil }
func (e *scriptedEngine) Stop()                          { e.stopOnce.Do(func() { close(e.decs) }) }
func (e *scriptedEngine) Propose(types.Command) error    { return nil }
func (e *scriptedEngine) Decisions() <-chan smr.Decision { return e.decs }
func (e *scriptedEngine) Leader() (types.NodeID, bool)   { return "", false }
func (e *scriptedEngine) ReadIndex(func(types.Slot, error)) error {
	return smr.ErrNotLeader
}
func (e *scriptedEngine) TruncateBelow(types.Slot) {}
func (e *scriptedEngine) SkipTo(types.Slot)        {}
func (e *scriptedEngine) Progress() smr.Progress   { return smr.Progress{} }
func (e *scriptedEngine) Counters() smr.Counters   { return smr.Counters{} }

type scriptedFactory struct{ eng *scriptedEngine }

func (f scriptedFactory) New(types.Config, types.NodeID, *transport.Endpoint, storage.Store, uint64) (smr.Replica, error) {
	return f.eng, nil
}
func (f scriptedFactory) Floor(storage.Store, uint64) (types.Slot, error) { return 0, nil }

// heldCounter is a counter machine that counts every Apply, and whose
// heldAt-th Apply, over all instances, blocks until release is closed.
type heldCounter struct {
	statemachine.Counter
	applies          *atomic.Int64
	heldAt           int64
	entered, release chan struct{}
}

func (m *heldCounter) Apply(op []byte) []byte {
	if m.applies.Add(1) == m.heldAt {
		close(m.entered)
		<-m.release
	}
	return m.Counter.Apply(op)
}

// addAt is the decision of slot s: client c's s-th command, adding 1.
func addAt(s int) smr.Decision {
	return smr.Decision{Slot: types.Slot(s), Cmd: types.Command{Kind: types.CmdApp, Client: "c", Seq: uint64(s), Data: statemachine.EncodeAdd(1)}}
}

// A catch-up install handed to a node whose apply loop is inside a segment
// waits for that segment's commit: the swap comes between two rounds, the
// segment's applies all count, and every slot above the snapshot's base is
// applied exactly once. An install that lands mid-round — it returns while
// the segment still executes against the machine it replaces — fails here.
func TestCatchupInstallWaitsForSegmentCommit(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	t.Cleanup(net.Close)
	eng := &scriptedEngine{decs: make(chan smr.Decision, 16)}
	var applies atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	opts := fastNodeOpts()
	opts.engine = scriptedFactory{eng}
	n, err := NewNode(NodeConfig{Self: "n1", Endpoint: net.Endpoint("n1"), Store: storage.NewMem(), Opts: opts,
		Factory: func() statemachine.Machine {
			return &heldCounter{applies: &applies, heldAt: 3, entered: entered, release: release}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Bootstrap(types.MustConfig(1, "n1")); err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	t.Cleanup(unblock) // runs before Stop, which waits for the held loop
	old := n.Machine()

	// Slots 1..5 reach the loop, which holds inside the segment at slot 3;
	// slots 6..10 are decided meanwhile.
	for s := 1; s <= 5; s++ {
		eng.decs <- addAt(s)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the apply loop never reached slot 3")
	}
	for s := 6; s <= 10; s++ {
		eng.decs <- addAt(s)
	}

	// A catch-up snapshot at base 7: the counter after slots 1..7.
	donor := statemachine.NewSessioned(statemachine.NewCounterMachine())
	for s := 1; s <= 7; s++ {
		donor.ApplyCommand(addAt(s).Cmd)
	}
	m, chunks := snapshotOf(donor, 7)
	installed := make(chan bool, 1)
	go func() { installed <- n.install(1, m, chunks) }()

	select {
	case <-installed:
		t.Fatal("install returned while a segment was executing against the machine it replaces")
	case <-time.After(100 * time.Millisecond):
	}
	if n.Machine() != old {
		t.Fatal("the machine was swapped while a segment was executing on it")
	}
	if _, at := n.AppliedSlot(); at >= 3 {
		t.Fatalf("applied slot %d while slot 3 is still executing", at)
	}
	unblock()
	select {
	case ok := <-installed:
		if !ok {
			t.Fatal("catch-up install at base 7 was refused")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("install never happened after the segment committed")
	}

	deadline := time.Now().Add(5 * time.Second)
	for _, at := n.AppliedSlot(); at < 10; _, at = n.AppliedSlot() {
		if time.Now().After(deadline) {
			t.Fatalf("applied slot %d, want 10", at)
		}
		time.Sleep(time.Millisecond)
	}
	st := n.Stats()
	if st.Applied != applies.Load() {
		t.Fatalf("%d commands executed, %d committed: a segment's results were discarded", applies.Load(), st.Applied)
	}
	if got := counterValue(t, n.Machine().ApplyRead(statemachine.EncodeCounterGet())); got != 10 {
		t.Fatalf("counter %d, want 10 (7 from the snapshot, 8..10 applied once)", got)
	}
	if st.InvariantViolations != 0 || st.CatchupFetches != 1 {
		t.Fatalf("violations %d, catch-up installs %d", st.InvariantViolations, st.CatchupFetches)
	}
}
