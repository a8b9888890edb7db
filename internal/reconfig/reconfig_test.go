package reconfig

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/paxos"
	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// world hosts a set of reconfig nodes over one simulated network.
type world struct {
	t    *testing.T
	net  *transport.Network
	opts Options
	// newStore builds a node's backing store (default in-memory). Worlds
	// on durable backends set it to open a per-node directory so a
	// crash-restart recovers from the same StorageDir.
	newStore func(id types.NodeID) storage.Store
	// powerLoss makes crashRestart drop what an in-memory store had not synced.
	powerLoss bool
	mu        sync.Mutex
	nodes     map[types.NodeID]*Node
	stores    map[types.NodeID]storage.Store
}

func fastNodeOpts() Options {
	return Options{
		Paxos: paxos.Options{
			TickInterval: time.Millisecond,
		},
	}
}

func newWorld(t *testing.T, netOpts transport.Options) *world {
	return newWorldOn(t, transport.NewNetwork(netOpts))
}

// newWorldOn hosts the nodes on a fabric the caller built (and the world
// closes), e.g. the loopback-TCP one.
func newWorldOn(t *testing.T, net *transport.Network) *world {
	w := &world{
		t:      t,
		net:    net,
		opts:   fastNodeOpts(),
		nodes:  make(map[types.NodeID]*Node),
		stores: make(map[types.NodeID]storage.Store),
	}
	t.Cleanup(w.close)
	return w
}

func (w *world) close() {
	w.mu.Lock()
	nodes := make([]*Node, 0, len(w.nodes))
	for _, n := range w.nodes {
		nodes = append(nodes, n)
	}
	stores := make([]storage.Store, 0, len(w.stores))
	for _, st := range w.stores {
		stores = append(stores, st)
	}
	w.mu.Unlock()
	for _, n := range nodes {
		n.Stop()
	}
	w.net.Close()
	for _, st := range stores {
		if c, ok := st.(io.Closer); ok {
			c.Close()
		}
	}
}

// startNode creates and starts a node (reusing any prior store: restart).
func (w *world) startNode(id types.NodeID, factory statemachine.Factory) *Node {
	w.t.Helper()
	w.mu.Lock()
	st, ok := w.stores[id]
	if !ok {
		if w.newStore != nil {
			st = w.newStore(id)
		} else {
			st = storage.NewMem()
		}
		w.stores[id] = st
	}
	w.mu.Unlock()
	n, err := NewNode(NodeConfig{
		Self:     id,
		Endpoint: w.net.Endpoint(id),
		Store:    st,
		Factory:  factory,
		Opts:     w.opts,
	})
	if err != nil {
		w.t.Fatal(err)
	}
	w.mu.Lock()
	w.nodes[id] = n
	w.mu.Unlock()
	return n
}

// bootstrap creates, bootstraps and starts the initial members.
func (w *world) bootstrap(factory statemachine.Factory, members ...types.NodeID) types.Config {
	w.t.Helper()
	cfg := types.MustConfig(1, members...)
	for _, id := range members {
		n := w.startNode(id, factory)
		if err := n.Bootstrap(cfg); err != nil {
			w.t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			w.t.Fatal(err)
		}
	}
	return cfg
}

func (w *world) node(id types.NodeID) *Node {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nodes[id]
}

// stopNode crashes a node process (store survives for restart).
func (w *world) stopNode(id types.NodeID) {
	w.t.Helper()
	n := w.node(id)
	n.Stop()
	w.net.Endpoint(id).Resume() // clear pause flag if any
}

// dropStore closes and forgets a node's store so the next startNode reopens
// it from its backing directory — the process-crash path for durable
// backends (a MemStore must NOT be dropped: its state would vanish).
func (w *world) dropStore(id types.NodeID) {
	w.mu.Lock()
	st := w.stores[id]
	delete(w.stores, id)
	w.mu.Unlock()
	if c, ok := st.(io.Closer); ok {
		if err := c.Close(); err != nil {
			w.t.Errorf("closing store %s: %v", id, err)
		}
	}
}

func (w *world) waitServing(ids ...types.NodeID) {
	w.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for _, id := range ids {
		if err := w.node(id).WaitServing(ctx); err != nil {
			w.t.Fatalf("node %s never served: %v", id, err)
		}
	}
}

// submit runs one command via the given node with retries on transient
// redirects (the node may be mid-transition).
func (w *world) submit(via, client types.NodeID, seq uint64, op []byte) []byte {
	w.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		reply, err := w.node(via).Submit(ctx, client, seq, op)
		cancel()
		if err == nil {
			return reply
		}
		time.Sleep(10 * time.Millisecond)
	}
	w.t.Fatalf("submit via %s (%s#%d) never succeeded", via, client, seq)
	return nil
}

func counterValue(t *testing.T, reply []byte) uint64 {
	t.Helper()
	if statemachine.ReplyStatus(reply) != statemachine.StatusOK {
		t.Fatalf("bad reply status %v", statemachine.ReplyStatus(reply))
	}
	v, err := statemachine.DecodeUvarintReply(statemachine.ReplyPayload(reply))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func (w *world) checkNoViolations() {
	w.t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, n := range w.nodes {
		if v := n.Stats().InvariantViolations; v != 0 {
			w.t.Errorf("node %s: %d invariant violations", id, v)
		}
	}
}

func TestBasicSubmitAndDedup(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond})
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")

	if v := counterValue(t, w.submit("n1", "c1", 1, statemachine.EncodeAdd(5))); v != 5 {
		t.Fatalf("add reply %d", v)
	}
	// Exact retry of the same (client, seq) must return the cached reply
	// and not re-apply.
	if v := counterValue(t, w.submit("n2", "c1", 1, statemachine.EncodeAdd(5))); v != 5 {
		t.Fatalf("dedup reply %d", v)
	}
	if v := counterValue(t, w.submit("n3", "c1", 2, statemachine.EncodeCounterGet())); v != 5 {
		t.Fatalf("counter = %d, dedup failed", v)
	}
	w.checkNoViolations()
}

func TestSubmitViaFollower(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond})
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	for seq := uint64(1); seq <= 6; seq++ {
		via := []types.NodeID{"n1", "n2", "n3"}[seq%3]
		w.submit(via, "c1", seq, statemachine.EncodeAdd(1))
	}
	if v := counterValue(t, w.submit("n1", "c1", 7, statemachine.EncodeCounterGet())); v != 6 {
		t.Fatalf("counter = %d", v)
	}
	w.checkNoViolations()
}

func TestReconfigureGrow(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond})
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	w.submit("n1", "c1", 1, statemachine.EncodeAdd(10))

	// Two spares join as members of configuration 2.
	for _, id := range []types.NodeID{"n4", "n5"} {
		n := w.startNode(id, statemachine.NewCounterMachine)
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cfg, err := w.node("n1").Reconfigure(ctx, []types.NodeID{"n1", "n2", "n3", "n4", "n5"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ID != 2 || cfg.N() != 5 {
		t.Fatalf("new config %s", cfg)
	}
	w.waitServing("n1", "n2", "n3", "n4", "n5")

	// State carried over: new members answer with the transferred value.
	if v := counterValue(t, w.submit("n4", "c1", 2, statemachine.EncodeCounterGet())); v != 10 {
		t.Fatalf("transferred counter = %d", v)
	}
	w.submit("n5", "c1", 3, statemachine.EncodeAdd(1))
	if v := counterValue(t, w.submit("n1", "c1", 4, statemachine.EncodeCounterGet())); v != 11 {
		t.Fatalf("post-grow counter = %d", v)
	}
	w.checkNoViolations()
}

func TestReconfigureFullReplacement(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond})
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	w.submit("n1", "c1", 1, statemachine.EncodeAdd(42))

	for _, id := range []types.NodeID{"m1", "m2", "m3"} {
		n := w.startNode(id, statemachine.NewCounterMachine)
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cfg, err := w.node("n2").Reconfigure(ctx, []types.NodeID{"m1", "m2", "m3"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ID != 2 {
		t.Fatalf("config %s", cfg)
	}
	w.waitServing("m1", "m2", "m3")
	if v := counterValue(t, w.submit("m1", "c1", 2, statemachine.EncodeCounterGet())); v != 42 {
		t.Fatalf("state lost in replacement: %d", v)
	}

	// Retired nodes redirect.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	if _, err := w.node("n1").Submit(ctx2, "c1", 3, statemachine.EncodeCounterGet()); !errors.Is(err, ErrNotServing) {
		// n1 may need a moment to learn it was retired
		deadline := time.Now().Add(5 * time.Second)
		ok := false
		for time.Now().Before(deadline) {
			ctx3, cancel3 := context.WithTimeout(context.Background(), 300*time.Millisecond)
			_, err = w.node("n1").Submit(ctx3, "c1", 3, statemachine.EncodeCounterGet())
			cancel3()
			if errors.Is(err, ErrNotServing) {
				ok = true
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if !ok {
			t.Fatalf("retired node kept serving: err=%v", err)
		}
	}
	w.checkNoViolations()
}

func TestChainedReconfigurations(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond})
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")

	members := [][]types.NodeID{
		{"n1", "n2", "n3", "n4"},
		{"n1", "n2", "n3", "n4", "n5"},
		{"n2", "n3", "n4", "n5"},
	}
	for _, id := range []types.NodeID{"n4", "n5"} {
		n := w.startNode(id, statemachine.NewCounterMachine)
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	seq := uint64(1)
	for round, m := range members {
		w.submit("n2", "c1", seq, statemachine.EncodeAdd(1))
		seq++
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cfg, err := w.node("n2").Reconfigure(ctx, m)
		cancel()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if cfg.ID != types.ConfigID(round+2) {
			t.Fatalf("round %d: config %s", round, cfg)
		}
	}
	w.waitServing("n2", "n3", "n4", "n5")
	if v := counterValue(t, w.submit("n4", "c1", seq, statemachine.EncodeCounterGet())); v != 3 {
		t.Fatalf("counter after chain = %d", v)
	}

	// P2: the chain is a path with consecutive IDs.
	recs := w.node("n2").ChainRecords()
	if len(recs) != 3 {
		t.Fatalf("chain records: %+v", recs)
	}
	for i, rec := range recs {
		if rec.From != types.ConfigID(i+1) || rec.To.ID != types.ConfigID(i+2) {
			t.Fatalf("chain not linear at %d: %+v", i, rec)
		}
	}
	w.checkNoViolations()
}

// TestNoAcknowledgedWriteLost is invariant P3: everything acknowledged
// before and during reconfigurations is present afterwards.
func TestNoAcknowledgedWriteLost(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond, Jitter: 200 * time.Microsecond, Seed: 5})
	w.bootstrap(statemachine.NewKVMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	for _, id := range []types.NodeID{"n4", "n5"} {
		n := w.startNode(id, statemachine.NewKVMachine)
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}

	// Writer goroutine hammers while we reconfigure twice.
	stop := make(chan struct{})
	var acked []string
	var wmu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		seq := uint64(1)
		vias := []types.NodeID{"n1", "n2", "n3", "n4", "n5"}
		for {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("k%d", seq)
			via := vias[int(seq)%len(vias)]
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			_, err := w.node(via).Submit(ctx, "writer", seq, statemachine.EncodePut(key, []byte("v")))
			cancel()
			if err == nil {
				wmu.Lock()
				acked = append(acked, key)
				wmu.Unlock()
				seq++
			}
			// On error: retry the same seq (possibly via another node).
		}
	}()

	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	if _, err := w.node("n1").Reconfigure(ctx, []types.NodeID{"n1", "n2", "n3", "n4", "n5"}); err != nil {
		t.Fatal(err)
	}
	cancel()
	time.Sleep(100 * time.Millisecond)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 15*time.Second)
	if _, err := w.node("n4").Reconfigure(ctx2, []types.NodeID{"n2", "n3", "n4", "n5"}); err != nil {
		t.Fatal(err)
	}
	cancel2()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	wmu.Lock()
	keys := append([]string(nil), acked...)
	wmu.Unlock()
	if len(keys) == 0 {
		t.Fatal("no acknowledged writes; test proved nothing")
	}
	// Every acknowledged key must be readable afterwards.
	probe := uint64(1)
	for _, key := range keys {
		reply := w.submit("n4", "reader", probe, statemachine.EncodeGet(key))
		probe++
		if statemachine.ReplyStatus(reply) != statemachine.StatusOK {
			t.Fatalf("acknowledged key %s lost (status %v)", key, statemachine.ReplyStatus(reply))
		}
	}
	w.checkNoViolations()
}

// TestBankConservationAcrossReconfig is invariant P4: re-submission across
// the wedge never double-applies.
func TestBankConservationAcrossReconfig(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond, Jitter: 300 * time.Microsecond, Seed: 11})
	w.bootstrap(statemachine.NewBankMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	w.submit("n1", "admin", 1, statemachine.EncodeOpen("a", 1000))
	w.submit("n1", "admin", 2, statemachine.EncodeOpen("b", 1000))

	for _, id := range []types.NodeID{"n4", "n5"} {
		n := w.startNode(id, statemachine.NewBankMachine)
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := types.NodeID(fmt.Sprintf("t%d", g))
			seq := uint64(1)
			vias := []types.NodeID{"n1", "n2", "n3"}
			for {
				select {
				case <-stop:
					return
				default:
				}
				via := vias[int(seq)%len(vias)]
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				_, err := w.node(via).Submit(ctx, client, seq, statemachine.EncodeTransfer("a", "b", 1))
				cancel()
				if err == nil {
					seq++
				}
			}
		}(g)
	}

	time.Sleep(80 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	if _, err := w.node("n1").Reconfigure(ctx, []types.NodeID{"n1", "n2", "n3", "n4", "n5"}); err != nil {
		t.Fatal(err)
	}
	cancel()
	time.Sleep(80 * time.Millisecond)
	close(stop)
	wg.Wait()

	reply := w.submit("n4", "auditor", 1, statemachine.EncodeTotal())
	total, err := statemachine.DecodeUvarintReply(statemachine.ReplyPayload(reply))
	if err != nil {
		t.Fatal(err)
	}
	if total != 2000 {
		t.Fatalf("conservation violated: total = %d", total)
	}
	w.checkNoViolations()
}

func TestCrashedMemberRestartsAndServes(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond})
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	w.submit("n1", "c1", 1, statemachine.EncodeAdd(7))

	w.stopNode("n3")
	w.submit("n1", "c1", 2, statemachine.EncodeAdd(3)) // progress with 2/3

	// Restart n3 from its surviving store.
	n3 := w.startNode("n3", statemachine.NewCounterMachine)
	if err := n3.Start(); err != nil {
		t.Fatal(err)
	}
	w.waitServing("n3")
	// n3 must converge to the full state.
	deadline := time.Now().Add(10 * time.Second)
	for {
		v := counterValue(t, w.submit("n3", "c1", 3, statemachine.EncodeCounterGet()))
		if v == 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted node stuck at %d", v)
		}
		time.Sleep(20 * time.Millisecond)
	}
	w.checkNoViolations()
}

func TestFailoverReplaceCrashedNode(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond})
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	w.submit("n1", "c1", 1, statemachine.EncodeAdd(5))

	spare := w.startNode("n4", statemachine.NewCounterMachine)
	if err := spare.Start(); err != nil {
		t.Fatal(err)
	}

	// n3 dies; replace it via reconfiguration from a survivor.
	w.net.Isolate("n3")
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	cfg, err := w.node("n1").Reconfigure(ctx, []types.NodeID{"n1", "n2", "n4"})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.IsMember("n4") || cfg.IsMember("n3") {
		t.Fatalf("replacement config %s", cfg)
	}
	w.waitServing("n4")
	if v := counterValue(t, w.submit("n4", "c1", 2, statemachine.EncodeCounterGet())); v != 5 {
		t.Fatalf("state after failover = %d", v)
	}
	w.checkNoViolations()
}

// TestStaleMemberJumpsViaAnnounce: a member partitioned through a
// reconfiguration whose old quorum then disappears must reach the new
// configuration via the announce + state-transfer path.
func TestStaleMemberJumpsViaAnnounce(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond})
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	w.submit("n1", "c1", 1, statemachine.EncodeAdd(9))

	// n3 misses the reconfiguration entirely.
	w.net.Isolate("n3")
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := w.node("n1").Reconfigure(ctx, []types.NodeID{"n1", "n2", "n3"}); err != nil {
		t.Fatal(err)
	}

	// Let the old engine's linger expire so catch-up through config 1 is
	// impossible, then heal. n3 must jump via announce/locate + fetch.
	time.Sleep(500 * time.Millisecond)
	w.net.Restore("n3")

	w.waitServing("n3")
	deadline := time.Now().Add(10 * time.Second)
	for {
		v := counterValue(t, w.submit("n3", "c1", 2, statemachine.EncodeCounterGet()))
		if v == 9 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale member stuck at %d", v)
		}
		time.Sleep(20 * time.Millisecond)
	}
	w.checkNoViolations()
}

func TestConcurrentReconfigureOneWinner(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond})
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	for _, id := range []types.NodeID{"n4", "n5"} {
		n := w.startNode(id, statemachine.NewCounterMachine)
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}

	type result struct {
		cfg types.Config
		err error
	}
	results := make(chan result, 2)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		cfg, err := w.node("n1").Reconfigure(ctx, []types.NodeID{"n1", "n2", "n3", "n4"})
		results <- result{cfg, err}
	}()
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		cfg, err := w.node("n2").Reconfigure(ctx, []types.NodeID{"n1", "n2", "n3", "n5"})
		results <- result{cfg, err}
	}()
	r1, r2 := <-results, <-results

	okCount := 0
	for _, r := range []result{r1, r2} {
		switch {
		case r.err == nil:
			okCount++
		case errors.Is(r.err, ErrConflict):
		default:
			t.Fatalf("unexpected error: %v", r.err)
		}
	}
	// Both may propose the same winning config only if identical; here the
	// member sets differ, so exactly one must win... unless both failed to
	// ErrConflict is impossible (someone's command was decided).
	if okCount == 0 {
		t.Fatal("no reconfiguration won")
	}
	// n3 was not a Reconfigure caller; give it a moment to apply the wedge.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if cfg2 := w.node("n3").CurrentConfig(); cfg2.ID == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("n3 stuck at %s", w.node("n3").CurrentConfig())
		}
		time.Sleep(10 * time.Millisecond)
	}
	w.checkNoViolations()
}

func TestDisableSpeculationStillReconfigures(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond})
	w.opts.SpeculativeStart = SpecOff
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	w.submit("n1", "c1", 1, statemachine.EncodeAdd(4))

	n4 := w.startNode("n4", statemachine.NewCounterMachine)
	if err := n4.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := w.node("n1").Reconfigure(ctx, []types.NodeID{"n1", "n2", "n3", "n4"}); err != nil {
		t.Fatal(err)
	}
	w.waitServing("n4")
	if v := counterValue(t, w.submit("n4", "c1", 2, statemachine.EncodeCounterGet())); v != 4 {
		t.Fatalf("counter = %d", v)
	}
	w.checkNoViolations()
}

func TestSpareNodeIdlesUntilAdded(t *testing.T) {
	w := newWorld(t, transport.Options{})
	w.bootstrap(statemachine.NewCounterMachine, "n1")
	w.waitServing("n1")

	spare := w.startNode("s1", statemachine.NewCounterMachine)
	if err := spare.Start(); err != nil {
		t.Fatal(err)
	}
	if spare.Serving() {
		t.Fatal("spare claims to be serving")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	if _, err := spare.Submit(ctx, "c", 1, statemachine.EncodeCounterGet()); !errors.Is(err, ErrNotServing) {
		t.Fatalf("spare accepted a submit: %v", err)
	}
	cancel()

	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if _, err := w.node("n1").Reconfigure(ctx2, []types.NodeID{"n1", "s1"}); err != nil {
		t.Fatal(err)
	}
	w.waitServing("s1")
	w.checkNoViolations()
}

func TestBootstrapValidation(t *testing.T) {
	w := newWorld(t, transport.Options{})
	n := w.startNode("x1", statemachine.NewCounterMachine)
	if err := n.Bootstrap(types.Config{ID: 2, Members: []types.NodeID{"x1"}}); err == nil {
		t.Fatal("bootstrap with ID 2 accepted")
	}
	cfg := types.MustConfig(1, "x1")
	if err := n.Bootstrap(cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.Bootstrap(cfg); err != nil {
		t.Fatalf("idempotent bootstrap failed: %v", err)
	}
	other := types.MustConfig(1, "x1", "x2")
	if err := n.Bootstrap(other); err == nil {
		t.Fatal("conflicting bootstrap accepted")
	}
}

func TestReconfigureValidation(t *testing.T) {
	w := newWorld(t, transport.Options{})
	w.bootstrap(statemachine.NewCounterMachine, "n1")
	w.waitServing("n1")
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := w.node("n1").Reconfigure(ctx, nil); err == nil {
		t.Fatal("empty member set accepted")
	}
	if _, err := w.node("n1").Reconfigure(ctx, []types.NodeID{"a", "a"}); err == nil {
		t.Fatal("duplicate members accepted")
	}
}

func TestNodeStopIdempotentAndStopsSubmit(t *testing.T) {
	w := newWorld(t, transport.Options{})
	w.bootstrap(statemachine.NewCounterMachine, "n1")
	w.waitServing("n1")
	n := w.node("n1")
	n.Stop()
	n.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := n.Submit(ctx, "c", 1, statemachine.EncodeCounterGet()); err == nil {
		t.Fatal("submit after stop succeeded")
	}
}

func TestChainRecordCodec(t *testing.T) {
	rec := ChainRecord{From: 3, WedgeSlot: 99, To: types.MustConfig(4, "a", "b", "c")}
	got, err := decodeChainRecord(encodeChainRecord(rec))
	if err != nil || !got.Equal(rec) {
		t.Fatalf("%+v %v", got, err)
	}
	if _, err := decodeChainRecord(encodeChainRecord(rec)[:3]); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestSubmitReplyCodec(t *testing.T) {
	m := SubmitResult{
		Status: SubmitRedirect,
		Reply:  []byte("payload"),
		Config: types.MustConfig(7, "x", "y"),
		Leader: "x",
	}
	got, err := DecodeSubmitResult(EncodeSubmitResult(m))
	if err != nil || got.Status != m.Status || string(got.Reply) != "payload" || !got.Config.Equal(m.Config) || got.Leader != "x" {
		t.Fatalf("%+v %v", got, err)
	}
}

// TestBatchingThroughReconfiguration: with engine batching on (the default,
// up to 16 commands per slot), commands and a reconfiguration interleave
// inside batches; the apply layer must unpack correctly and preserve
// exactly-once semantics across the wedge.
func TestBatchingThroughReconfiguration(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond})
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	n4 := w.startNode("n4", statemachine.NewCounterMachine)
	if err := n4.Start(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var acked uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		seq := uint64(1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			_, err := w.node("n1").Submit(ctx, "batcher", seq, statemachine.EncodeAdd(1))
			cancel()
			if err == nil {
				acked = seq
				seq++
			}
		}
	}()
	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := w.node("n2").Reconfigure(ctx, []types.NodeID{"n1", "n2", "n3", "n4"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	final := acked
	if final == 0 {
		t.Fatal("nothing acknowledged")
	}
	v := counterValue(t, w.submit("n4", "checker", 1, statemachine.EncodeCounterGet()))
	if v != final {
		t.Fatalf("counter %d != acked %d (batch lost or double-applied)", v, final)
	}
	w.checkNoViolations()
}

// contextWithTimeout is a tiny alias keeping test call sites compact.
func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// TestNodeOnDiskRestartAfterReconfigure runs a full stop/restart cycle with
// the node's state in a WAL directory: promises, log, chain and snapshots
// must all survive the process — including the successor's initial state,
// whose commit is still in flight when Stop follows the reconfiguration at
// once.
func TestNodeOnDiskRestartAfterReconfigure(t *testing.T) {
	net := transport.NewNetwork(transport.Options{BaseLatency: 100 * time.Microsecond})
	t.Cleanup(net.Close)
	dir := t.TempDir()
	opts := fastNodeOpts()

	var st *storage.WALStore
	open := func() *Node {
		var err error
		if st, err = storage.OpenWALStore(dir, storage.WALStoreOptions{}); err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(NodeConfig{
			Self:     "n1",
			Endpoint: net.Endpoint("n1"),
			Store:    st,
			Factory:  statemachine.NewCounterMachine,
			Opts:     opts,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	n := open()
	if err := n.Bootstrap(types.MustConfig(1, "n1")); err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := contextWithTimeout(15 * time.Second)
	defer cancel()
	if err := n.WaitServing(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Submit(ctx, "c", 1, statemachine.EncodeAdd(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Reconfigure(ctx, []types.NodeID{"n1"}); err != nil {
		t.Fatal(err)
	}
	n.Stop()
	st.Close()

	// Restart from disk: config chain at cfg2, counter at 7.
	n2 := open()
	t.Cleanup(func() { st.Close() })
	t.Cleanup(n2.Stop)
	if err := n2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := n2.WaitServing(ctx); err != nil {
		t.Fatal(err)
	}
	if got := n2.CurrentConfig().ID; got != 2 {
		t.Fatalf("restart config %d", got)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		reply, err := n2.Submit(ctx, "c", 2, statemachine.EncodeCounterGet())
		if err == nil {
			v, _ := statemachine.DecodeUvarintReply(statemachine.ReplyPayload(reply))
			if v == 7 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("on-disk restart state %d", v)
			}
		} else if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n2.Stats().InvariantViolations != 0 {
		t.Fatal("violations on on-disk node")
	}
}

// The defaults a zero Options normalizes to, pinned: the benchmark and every
// deployment preset lean on them, the queue bounds and timings that stopped
// being fields must keep the values they had, and the engine is static Paxos.
func TestOptionsDefaults(t *testing.T) {
	want := Options{
		SpeculativeStart:   SpecOn,
		SubmitQueue:        4096,
		checkpointInterval: 4096,
		checkpointMargin:   512,
		catchupGapSlots:    8192,
		engine:             paxos.Factory(paxos.Options{}),
	}
	if got := (Options{}).withDefaults(); got != want {
		t.Fatalf("zero Options normalizes to\n%+v, want\n%+v", got, want)
	}
	if pendingMaxRetries != 2000 {
		t.Fatalf("pendingMaxRetries %d, want 2000", pendingMaxRetries)
	}
	if retryInterval != 10*time.Millisecond || lingerOld != 500*time.Millisecond || fetchTimeout != 150*time.Millisecond {
		t.Fatalf("retryInterval %v, lingerOld %v, fetchTimeout %v; want 10ms, 500ms, 150ms", retryInterval, lingerOld, fetchTimeout)
	}
	if staleJumpTicks != 15 || gossipTicks != 20 {
		t.Fatalf("staleJumpTicks %d, gossipTicks %d; want 15, 20", staleJumpTicks, gossipTicks)
	}
}
