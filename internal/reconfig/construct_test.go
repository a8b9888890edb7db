package reconfig

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/paxos"
	"repro/internal/smr"
	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// A replica at rest costs what it holds. Every configuration change starts a
// fresh engine on every member, so what a node and an engine allocate before
// their first message is paid per member per change. Their queues grow with
// what is queued (internal/fifo): a node allocates about 8 KB and an engine
// about 90 KB, where the 8192-slot channels they used to preallocate cost
// 597 KB and 557 KB. The bounds leave room for growth, not for one such
// channel. Allocation does not depend on the runner's speed, so CI gates this
// in a step of its own; under the race detector, which allocates on its own
// account, the figures are printed, not gated.
func TestReplicaConstructionAllocates(t *testing.T) {
	const (
		rounds  = 20
		maxNode = 16 << 10
		maxEng  = 192 << 10
	)
	net := transport.NewNetwork(transport.Options{})
	t.Cleanup(net.Close)
	ep := net.Endpoint("n1")
	cfg := types.MustConfig(1, "n1", "n2", "n3")
	stores := make([]storage.Store, rounds)
	for i := range stores {
		stores[i] = storage.NewMem()
	}
	perCall := func(f func(store storage.Store)) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, st := range stores {
			f(st)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / rounds
	}
	node := perCall(func(st storage.Store) {
		if _, err := NewNode(NodeConfig{Self: "n1", Endpoint: ep, Store: st, Factory: statemachine.NewKVMachine}); err != nil {
			t.Fatal(err)
		}
	})
	eng := perCall(func(st storage.Store) {
		if _, err := paxos.New(cfg, "n1", ep, st, 1, paxos.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("reconfig.NewNode: %.0f B, paxos.New on a mem store: %.0f B per call", node, eng)
	if raceEnabled {
		return
	}
	if node > maxNode {
		t.Errorf("reconfig.NewNode allocates %.0f B, want <= %d: something preallocates what it may never hold", node, maxNode)
	}
	if eng > maxEng {
		t.Errorf("paxos.New allocates %.0f B, want <= %d: something preallocates what it may never hold", eng, maxEng)
	}
}

// A full apply queue holds the engine consumer that hits it — counted as one
// stall however long it waits — until the apply stage drains the queue; then
// the held decision goes in.
func TestFullApplyQueueStallsOnceUntilDrained(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	t.Cleanup(net.Close)
	n := bareApplyNode(t, net, 0)
	td := func(slot int) taggedDecision {
		return taggedDecision{id: 1, dec: smr.Decision{Slot: types.Slot(slot), Cmd: types.NoopCommand()}}
	}
	for s := 1; s <= applyQueueLen; s++ {
		if !n.queueDecision(td(s)) {
			t.Fatalf("decision %d refused below the bound", s)
		}
	}
	if st := n.Stats(); st.ApplyStalls != 0 || st.ApplyQueueDepth != applyQueueLen {
		t.Fatalf("filling the queue: %d stalls, depth %d", st.ApplyStalls, st.ApplyQueueDepth)
	}
	queued := make(chan bool)
	go func() { queued <- n.queueDecision(td(applyQueueLen + 1)) }()
	for deadline := time.Now().Add(5 * time.Second); n.applyStalls.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no apply stall counted for a consumer facing a full queue")
		}
	}
	select {
	case <-queued:
		t.Fatal("a decision went into a full apply queue")
	case <-time.After(20 * time.Millisecond):
	}
	if got := n.Stats().ApplyStalls; got != 1 {
		t.Fatalf("%d apply stalls while one consumer waits, want 1", got)
	}
	n.mu.Lock()
	n.drainApplyLocked()
	n.mu.Unlock()
	select {
	case ok := <-queued:
		if !ok {
			t.Fatal("the held decision was refused after the drain")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a drain did not release the consumer waiting on the full queue")
	}
	st := n.Stats()
	if st.ApplyStalls != 1 || st.ApplyQueueDepth != 1 || st.ApplyQueueHighWater != applyQueueLen {
		t.Fatalf("after the drain: %d stalls, depth %d, high water %d; want 1, 1, %d",
			st.ApplyStalls, st.ApplyQueueDepth, st.ApplyQueueHighWater, applyQueueLen)
	}
	if got := len(n.engines[1].buffered); got != applyQueueLen {
		t.Fatalf("the drain routed %d decisions, want %d", got, applyQueueLen)
	}
}
