package reconfig

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/paxos"
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

// A replica at rest costs the goroutines that do its work and no relay between
// them: a started engine runs its event loop, and a node's engine run adds
// that loop and the consumer that parks its decisions for the apply stage.
// The counts do not depend on the runner's speed; a relay goroutine put back
// between decide and apply fails here.
func TestReplicaAtRestGoroutines(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	t.Cleanup(net.Close)
	for _, id := range []types.NodeID{"n1", "s1", "m1"} {
		net.Endpoint(id)
	}
	// added starts something, reports how many goroutines it adds once the
	// count settles, and stops it.
	added := func(start func() (stop func())) int {
		before := settledGoroutines(t)
		stop := start()
		defer stop()
		return settledGoroutines(t) - before
	}
	// A goroutine an earlier test left winding down can move a count, so a
	// mismatch is measured again.
	measure := func(want int, what string, count func() int) {
		t.Helper()
		got := 0
		for try := 0; try < 3; try++ {
			if got = count(); got == want {
				return
			}
		}
		t.Fatalf("%s adds %d goroutines at rest, want %d", what, got, want)
	}
	measure(1, "a started paxos.Replica", func() int {
		return added(func() func() {
			rep, err := paxos.New(types.MustConfig(1, "n1"), "n1", net.Endpoint("n1"), storage.NewMem(), 1, paxos.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Start(); err != nil {
				t.Fatal(err)
			}
			return rep.Stop
		})
	})
	// A spare runs no engine; a member of a one-node configuration runs one.
	node := func(id types.NodeID, member bool) func() func() {
		return func() func() {
			n, err := NewNode(NodeConfig{Self: id, Endpoint: net.Endpoint(id), Store: storage.NewMem(),
				Factory: statemachine.NewKVMachine, Opts: fastNodeOpts()})
			if err != nil {
				t.Fatal(err)
			}
			if member {
				if err := n.Bootstrap(types.MustConfig(1, id)); err != nil {
					t.Fatal(err)
				}
			}
			if err := n.Start(); err != nil {
				t.Fatal(err)
			}
			return n.Stop
		}
	}
	measure(2, "an engine run of a reconfig.Node", func() int {
		return added(node("m1", true)) - added(node("s1", false))
	})
}

// settledGoroutines is the goroutine count once it has held still for 100 ms.
func settledGoroutines(t *testing.T) int {
	t.Helper()
	last, still := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		if n := runtime.NumGoroutine(); n != last {
			last, still = n, 0
		} else if still++; still == 20 {
			return n
		}
	}
	t.Fatal("the goroutine count never settled")
	return 0
}
