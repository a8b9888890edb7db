package reconfig

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
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

// Tests of log compaction by reconfiguration: every configuration's log ends
// at the log bound with a wedge to the same members, a retired
// configuration's log is discarded whole, and a member that falls behind
// catches up by the stale jump instead of replaying a retired log.

// boundOpts sets a 30-slot log bound, so short tests cross it many times.
func boundOpts(o Options) Options {
	o.logBound = 30
	return o
}

// driveAdds submits count increments of 1 through via, all under one client
// session starting at seq+1, and returns the last sequence used.
func (w *world) driveAdds(via, client types.NodeID, seq uint64, count int) uint64 {
	w.t.Helper()
	for i := 0; i < count; i++ {
		seq++
		w.submit(via, client, seq, statemachine.EncodeAdd(1))
	}
	return seq
}

// waitStat polls until probe returns true.
func (w *world) waitStat(probe func() bool, what string, timeout time.Duration) {
	w.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if probe() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	w.t.Fatalf("timed out waiting for %s", what)
}

// runsAndRetained reads, in one step, the configurations n holds engine runs
// of and the decided slots those runs retain.
func runsAndRetained(n *Node) (runs map[types.ConfigID]bool, retained int64) {
	n.inspect(func() {
		runs = make(map[types.ConfigID]bool, len(n.engines))
		for id, run := range n.engines {
			runs[id] = true
			retained += run.eng.Counters().RetainedSlots
		}
	})
	return runs, retained
}

// namespaces returns the configurations whose engine namespace (pxs/<id>/)
// has keys in st.
func namespaces(t *testing.T, st storage.Store) map[types.ConfigID]bool {
	t.Helper()
	kvs, err := st.Scan("pxs/")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[types.ConfigID]bool)
	for _, kv := range kvs {
		id, err := strconv.ParseUint(strings.SplitN(strings.TrimPrefix(kv.Key, "pxs/"), "/", 2)[0], 10, 64)
		if err != nil {
			t.Fatalf("key %q: %v", kv.Key, err)
		}
		out[types.ConfigID(id)] = true
	}
	return out
}

// settled reports whether node id retains at most one log bound and its
// store holds engine namespaces only of the runs it holds.
func settled(t *testing.T, w *world, id types.NodeID) bool {
	runs, retained := runsAndRetained(w.node(id))
	if retained > int64(w.opts.logBound) {
		return false
	}
	for ns := range namespaces(t, w.stores[id]) {
		if !runs[ns] {
			return false
		}
	}
	return true
}

// TestCompactionBoundsRetainedLog is log compaction under load on WAL stores:
// two closed-loop clients cross the 30-slot bound a dozen times. Throughout,
// no engine run holds more than the bound plus one slot per command
// outstanding at the members — the run's real bound (DESIGN.md "Log
// compaction is a reconfiguration"): past the bound an engine decides only
// what was proposed to it before its member applied the bound, and a
// closed-loop client has one command outstanding. Once the load stops and the
// old runs have lingered out, each node retains at most one bound and its
// store holds the engine namespaces of its live runs alone. Both hold again
// after every node restarts from its WAL.
func TestCompactionBoundsRetainedLog(t *testing.T) {
	dir := t.TempDir()
	w := newWorld(t, transport.Options{})
	w.opts = boundOpts(w.opts)
	w.newStore = func(id types.NodeID) storage.Store {
		st, err := storage.OpenWALStore(filepath.Join(dir, string(id)), storage.WALStoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	members := []types.NodeID{"n1", "n2", "n3"}
	clients := []types.NodeID{"n1", "n2"} // each submits through the member named like it
	w.bootstrap(statemachine.NewCounterMachine, members...)
	w.waitServing(members...)
	outstanding := len(clients) // one command each: the clients are closed-loop
	perRun := int64(w.opts.logBound + outstanding)

	stop, sampled := make(chan struct{}), make(chan struct{})
	var worst struct {
		sync.Mutex
		retained int64
		runs     int
	}
	go func() {
		defer close(sampled)
		for {
			for _, id := range members {
				runs, retained := runsAndRetained(w.node(id))
				if retained > perRun*int64(len(runs)) {
					t.Errorf("%s retains %d slots over %d runs, more than %d a run", id, retained, len(runs), perRun)
				}
				worst.Lock()
				if retained > worst.retained {
					worst.retained, worst.runs = retained, len(runs)
				}
				worst.Unlock()
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	var wg sync.WaitGroup
	var total uint64
	var mu sync.Mutex
	for _, via := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seq := w.driveAdds(via, via, 0, 200)
			mu.Lock()
			total += seq
			mu.Unlock()
		}()
	}
	wg.Wait()
	close(stop)
	<-sampled
	t.Logf("peak RetainedSlots %d over %d runs", worst.retained, worst.runs)
	if id := w.node("n1").CurrentConfig().ID; id < 10 {
		t.Fatalf("400 adds reached configuration %d only; the bound should have wedged a dozen times", id)
	}

	check := func(phase string) {
		t.Helper()
		time.Sleep(lingerOld)
		for _, id := range members {
			w.waitStat(func() bool { return settled(t, w, id) }, string(id)+" to settle "+phase, 5*time.Second)
		}
		reply := w.submit("n3", "probe", uint64(len(phase)), statemachine.EncodeCounterGet())
		if got := counterValue(t, reply); got != total {
			t.Fatalf("counter %d %s, want %d", got, phase, total)
		}
	}
	check("after the load")
	for _, id := range members {
		w.stopNode(id)
		w.dropStore(id)
	}
	for _, id := range members {
		if err := w.startNode(id, statemachine.NewCounterMachine).Start(); err != nil {
			t.Fatal(err)
		}
	}
	w.waitServing(members...)
	check("after the restart")
	w.checkNoViolations()
}

// TestLaggardJumpsPastRetiredLogs: a member cut off while the others run two
// log bounds on and retire the configurations it was in cannot replay those
// logs — they are gone everywhere. Healed, it learns the chain and jumps
// (the stale jump), fetching the newest configuration's initial state, and
// serves the exact state. It is handed the newest chain record alone first,
// as a gossip push can: a gossip pull that named the newest configuration the
// member knows, rather than the newest its chain reaches from the one it is
// in, would never send it the record it needs to jump.
func TestLaggardJumpsPastRetiredLogs(t *testing.T) {
	w := newWorld(t, transport.Options{})
	w.opts = boundOpts(w.opts)
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	seq := w.driveAdds("n1", "c1", 0, 10)

	w.net.Isolate("n3")
	from := w.node("n3").CurrentConfig().ID
	seq = w.driveAdds("n1", "c1", seq, 2*w.opts.logBound+5)
	time.Sleep(lingerOld + 3*retryInterval) // the others retire what n3 was in
	if id := w.node("n1").CurrentConfig().ID; id < from+2 {
		t.Fatalf("the others reached configuration %d from %d; the scenario needs two bounds", id, from)
	}
	recs := w.node("n1").ChainRecords()
	w.node("n3").handleAnnounce(recs[len(recs)-1])
	w.net.Restore("n3")
	w.waitStat(func() bool {
		return w.node("n3").CurrentConfig().ID == w.node("n1").CurrentConfig().ID && w.node("n3").Serving()
	},
		"the laggard to serve the current configuration", 15*time.Second)
	if st := w.node("n3").Stats(); st.StaleJumps+st.SnapshotsFetched == 0 {
		t.Fatalf("the laggard caught up without a jump: %+v", st)
	}
	if v := counterValue(t, w.submit("n3", "c1", seq+1, statemachine.EncodeAdd(1))); v != seq+1 {
		t.Fatalf("counter via the laggard = %d, want %d", v, seq+1)
	}
	w.checkNoViolations()
}

// commitFault fails every write of one configuration's snapshot while it is
// armed, so the store never makes that snapshot durable.
type commitFault struct {
	*storage.MemStore
	prefix string
	armed  atomic.Bool
	failed chan struct{} // closed at the first write it fails
	once   sync.Once
}

func (f *commitFault) SetBuffered(key string, value []byte) error {
	if strings.HasPrefix(key, f.prefix) && f.armed.Load() {
		f.once.Do(func() { close(f.failed) })
		return errors.New("injected write fault")
	}
	return f.MemStore.SetBuffered(key, value)
}

// TestPowerLossOnEveryMemberAfterBoundWedge cuts the power on every member
// after a log-bound wedge has made configuration 2's chain record durable,
// configuration 2 has acknowledged writes and every member has retired
// configuration 1's run, while no member's store holds configuration 2's
// snapshot (its commit fails). Configuration 2's state at slot 0 then exists
// nowhere, so each member must rebuild it from its own logs — which retiring
// the run must not have discarded: restart in configuration 1, replay it to
// the bound and wedge again. All of them serve afterwards with every
// acknowledged add, and each discards what it retired.
func TestPowerLossOnEveryMemberAfterBoundWedge(t *testing.T) {
	w := newWorld(t, transport.Options{})
	w.opts = boundOpts(w.opts)
	members := []types.NodeID{"n1", "n2", "n3"}
	faults := make(map[types.NodeID]*commitFault)
	w.newStore = func(id types.NodeID) storage.Store {
		f := &commitFault{MemStore: storage.NewMem(), prefix: snapPrefix(2) + "/", failed: make(chan struct{})}
		f.armed.Store(true)
		faults[id] = f
		return f
	}
	w.bootstrap(statemachine.NewCounterMachine, members...)
	w.waitServing(members...)
	seq := w.driveAdds("n1", "c1", 0, w.opts.logBound+10)
	if id := w.node("n1").CurrentConfig().ID; id != 2 {
		t.Fatalf("the adds reached configuration %d; the scenario needs one bound wedge", id)
	}
	for _, id := range members {
		select {
		case <-faults[id].failed:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never committed configuration 2's snapshot", id)
		}
		w.waitStat(func() bool { runs, _ := runsAndRetained(w.node(id)); return !runs[1] },
			string(id)+" to retire configuration 1's run", 5*time.Second)
	}
	time.Sleep(5 * retryInterval) // let the retirement that dropped the run finish

	for _, id := range members {
		faults[id].PowerLoss()
		w.stopNode(id)
	}
	for _, id := range members {
		faults[id].armed.Store(false)
		faults[id].Reopen()
		if err := w.startNode(id, statemachine.NewCounterMachine).Start(); err != nil {
			t.Fatalf("%s: restart: %v", id, err)
		}
		if recs := w.node(id).ChainRecords(); len(recs) == 0 {
			t.Fatalf("%s lost configuration 2's chain record; the cut came too early to test anything", id)
		}
	}
	w.waitServing(members...)
	for _, id := range members {
		waitCurrent(t, w.node(id), 2)
	}
	if v := counterValue(t, w.submit("n2", "c1", seq+1, statemachine.EncodeAdd(1))); v != seq+1 {
		t.Fatalf("counter after the power cut = %d, want %d", v, seq+1)
	}
	w.driveAdds("n1", "c2", 0, w.opts.logBound)
	time.Sleep(lingerOld)
	for _, id := range members {
		w.waitStat(func() bool { return settled(t, w, id) }, string(id)+" to discard what it retired", 5*time.Second)
	}
	w.checkNoViolations()
}

// TestReconfigureRacesLogBound: user reconfigurations proposed while two
// clients keep wedging configurations at a 4-slot bound each return the
// members they asked for, never ErrConflict, whether or not a bound wedge took
// their chain position first (TestReconfigureRetriesPastBoundWedge forces that
// race on a scripted engine; here the log counts how often it happened).
func TestReconfigureRacesLogBound(t *testing.T) {
	w := newWorld(t, transport.Options{})
	w.opts.logBound = 4
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	spareNode(t, w, "s1")
	w.waitServing("n1", "n2", "n3")

	stop := make(chan struct{})
	var loaders sync.WaitGroup
	for _, via := range []types.NodeID{"n1", "n2"} {
		loaders.Add(1)
		go func() {
			defer loaders.Done()
			for seq := uint64(1); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				_, _ = w.node(via).Submit(ctx, via, seq, statemachine.EncodeAdd(1))
				cancel()
			}
		}()
	}
	defer func() { close(stop); loaders.Wait() }()

	lost := 0
	for i := 0; i < 6; i++ {
		want := []types.NodeID{"n1", "n2", "s1"}
		if i%2 == 1 {
			want = []types.NodeID{"n1", "n2", "n3"}
		}
		time.Sleep(20 * time.Millisecond) // let the load run the log up to a bound
		before := w.node("n1").CurrentConfig().ID
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		got, err := w.node("n1").Reconfigure(ctx, want)
		cancel()
		if err != nil {
			t.Fatalf("reconfiguration %d to %v: %v (won %v)", i, want, err, got)
		}
		if !got.Equal(types.Config{ID: got.ID, Members: want}) {
			t.Fatalf("reconfiguration %d returned %v, want the members %v", i, got, want)
		}
		lost += int(got.ID-before) - 1
	}
	t.Logf("chain positions lost to bound wedges: %d; configuration %d at the end", lost, w.node("n1").CurrentConfig().ID)
	w.checkNoViolations()
}

// TestGossipReplyIsDelta: after k log-bound wedges a gossip pull, which names
// the newest configuration the asker knows, carries only what follows it; a
// client's bare chain request still gets the whole chain.
func TestGossipReplyIsDelta(t *testing.T) {
	w := newWorld(t, transport.Options{})
	w.opts = boundOpts(w.opts)
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	w.driveAdds("n1", "c1", 0, 6*w.opts.logBound)
	n := w.node("n1")
	k := int(n.CurrentConfig().ID) - 1
	if k < 5 {
		t.Fatalf("%d wedges; the scenario needs several", k)
	}
	ask := func(req []byte) ChainResult {
		t.Helper()
		reply := make(chan []byte, 1)
		n.handleRPC("probe", req, func(b []byte) { reply <- b })
		cr, err := DecodeChainResult(<-reply)
		if err != nil {
			t.Fatal(err)
		}
		return cr
	}
	if got := ask(EncodeChainRequest()).Records; len(got) != k {
		t.Fatalf("a bare chain request got %d records, want all %d", len(got), k)
	}
	for _, behind := range []int{0, 1, 2} {
		since := types.ConfigID(k + 1 - behind)
		cr := ask(encodeChainRequestSince(since))
		if len(cr.Records) != behind {
			t.Fatalf("asker at configuration %d got %d records, want %d", since, len(cr.Records), behind)
		}
		for _, rec := range cr.Records {
			if rec.From < since {
				t.Fatalf("asker at configuration %d got the record of %d", since, rec.From)
			}
		}
		if cr.Initial.ID != 1 {
			t.Fatalf("reply without the initial configuration: %v", cr.Initial)
		}
	}
}

// TestTornCheckpointManifestFallsBackToReplay: a member of the bootstrap
// configuration whose snapshot manifest is corrupted on disk must not brick
// on restart. The bootstrap state is the empty machine and the log is whole
// from slot 1, so recovery replays it and reproduces the state.
func TestTornCheckpointManifestFallsBackToReplay(t *testing.T) {
	w := newWorld(t, transport.Options{})
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1")

	const ops = 100
	w.driveAdds("n1", "c1", 0, ops)
	_, tip := w.node("n1").AppliedSlot()

	w.stopNode("n3")
	// Torn write: the manifest bytes are garbage.
	if err := w.stores["n3"].Set(storage.ManifestKey(snapPrefix(1)), []byte{0xff, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	n3 := w.startNode("n3", statemachine.NewCounterMachine)
	if err := n3.Start(); err != nil {
		t.Fatal(err)
	}
	w.waitStat(func() bool {
		_, s := n3.AppliedSlot()
		return s >= tip
	}, "restarted victim to replay the log", 20*time.Second)
	if v := counterValue(t, w.submit("n3", "c1", ops+1, statemachine.EncodeAdd(1))); v != ops+1 {
		t.Fatalf("counter=%d after torn-manifest replay, want %d", v, ops+1)
	}
	w.checkNoViolations()
}

// TestTornManifestAfterTruncationRefetches: the same torn manifest, but in a
// configuration that a log-bound wedge started, once the victim has discarded
// its predecessor's log whole — its own initial state exists only as a
// snapshot. Replay cannot rebuild it, so the node must come up uninitialized
// and refetch the snapshot from its peers before serving.
func TestTornManifestAfterTruncationRefetches(t *testing.T) {
	w := newWorld(t, transport.Options{})
	w.opts = boundOpts(w.opts)
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1")

	ops := uint64(2*w.opts.logBound + 10)
	w.driveAdds("n1", "c1", 0, int(ops))
	cur := w.node("n1").CurrentConfig().ID
	waitCurrent(t, w.node("n3"), cur)
	w.waitStat(func() bool {
		_, _, complete, err := storage.ReadChunked(w.stores["n3"], snapPrefix(cur))
		return err == nil && complete
	}, "victim to commit its current snapshot", 10*time.Second)
	w.waitStat(func() bool { return !namespaces(t, w.stores["n3"])[cur-1] },
		"victim to discard its predecessor's log", 10*time.Second)

	w.stopNode("n3")
	if err := w.stores["n3"].Set(storage.ManifestKey(snapPrefix(cur)), []byte{0xff, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	n3 := w.startNode("n3", statemachine.NewCounterMachine)
	if err := n3.Start(); err != nil {
		t.Fatal(err)
	}
	if n3.Serving() {
		t.Fatal("the victim served from a machine it could not recover")
	}
	w.waitServing("n3")
	if n3.Stats().SnapshotsFetched == 0 {
		t.Fatal("victim recovered without fetching; replay from slot 1 cannot rebuild a wedge-time state")
	}
	if v := counterValue(t, w.submit("n3", "c1", ops+1, statemachine.EncodeAdd(1))); v != ops+1 {
		t.Fatalf("counter=%d after refetch, want %d", v, ops+1)
	}
	w.checkNoViolations()
}

// TestStartRefusesSnapshotBelowEngineFloor: a store from the version with
// within-configuration checkpoints can hold an engine log truncated below a
// floor (pxs/<id>/trunc). This version never releases part of a log and
// cannot redeliver one with a hole, so Start refuses it with smr.ErrOldLayout
// instead of replaying from a slot the log no longer holds.
func TestStartRefusesSnapshotBelowEngineFloor(t *testing.T) {
	w := newWorld(t, transport.Options{})
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1")
	w.driveAdds("n1", "c1", 0, 10)
	w.stopNode("n3")
	if err := w.stores["n3"].Set("pxs/1/trunc", []byte{57}); err != nil {
		t.Fatal(err)
	}
	if err := w.startNode("n3", statemachine.NewCounterMachine).Start(); !errors.Is(err, smr.ErrOldLayout) {
		t.Fatalf("Start over a truncated engine log: %v, want %v", err, smr.ErrOldLayout)
	}
}

// TestNoCheckpointsAblationNeverTruncates: with NoCheckpoints set the log
// bound is off — no wedge ends the configuration, nothing is discarded, and
// the full log is retained (the benchmark's durable workload runs so).
func TestNoCheckpointsAblationNeverTruncates(t *testing.T) {
	w := newWorld(t, transport.Options{})
	w.opts = boundOpts(w.opts)
	w.opts.NoCheckpoints = true
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1")

	const ops = 120
	w.driveAdds("n1", "c1", 0, ops)
	// Give the tick ample turns to (wrongly) trigger anything.
	time.Sleep(200 * time.Millisecond)
	for _, id := range []types.NodeID{"n1", "n2", "n3"} {
		st := w.node(id).Stats()
		if st.CheckpointsPublished != 0 || st.TruncatedSlots != 0 || w.node(id).CurrentConfig().ID != 1 {
			t.Errorf("%s: the log bound ran under NoCheckpoints: %+v", id, st)
		}
		if st.RetainedSlots < int64(ops) {
			t.Errorf("%s: retains only %d slots; the ablation must keep the full log", id, st.RetainedSlots)
		}
	}
	w.checkNoViolations()
}

// TestRestartReplaysFullLog pins restart recovery of an unbounded log: at
// startup the engine redelivers its whole retained log in one burst, far
// faster than the apply stage drains it, and the restarted node must
// re-apply every slot of it — a lost slot is a permanent wedge. Regression
// for a K1 failure: the full-replay arm's victim recovered 51k decisions, a
// node-side buffer dropped everything past its 16384-slot cap, and it
// stalled forever.
func TestRestartReplaysFullLog(t *testing.T) {
	w := newWorld(t, transport.Options{})
	w.opts.NoCheckpoints = true
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1")

	const ops = 500
	w.driveAdds("n1", "c1", 0, ops)
	w.waitStat(func() bool {
		_, a := w.node("n3").AppliedSlot()
		_, lead := w.node("n1").AppliedSlot()
		return a >= lead && a > 0
	}, "n3 to apply everything", 15*time.Second)
	_, tip := w.node("n3").AppliedSlot()

	w.stopNode("n3")
	n3 := w.startNode("n3", statemachine.NewCounterMachine)
	if err := n3.Start(); err != nil {
		t.Fatal(err)
	}
	w.waitStat(func() bool {
		_, a := n3.AppliedSlot()
		return a >= tip
	}, "restart replay to re-apply the full log", 20*time.Second)
	// The replayed state is exact: one Get answered by n3's own machine.
	reply := w.submit("n3", "probe", 1, statemachine.EncodeCounterGet())
	if got := counterValue(t, reply); got != ops {
		t.Errorf("counter after restart replay = %d, want %d", got, ops)
	}
	w.checkNoViolations()
}

// TestSpeculativeJoinerConvergesUnderLoad: a joiner that orders decisions
// speculatively while load keeps deciding — and wedging at the log bound —
// through its membership change converges to the exact state: every
// background add applied once.
func TestSpeculativeJoinerConvergesUnderLoad(t *testing.T) {
	w := newWorld(t, transport.Options{
		BaseLatency: 200 * time.Microsecond,
		Jitter:      100 * time.Microsecond,
		Seed:        7,
	})
	w.opts = boundOpts(w.opts)
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	s1 := w.startNode("s1", statemachine.NewCounterMachine)
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	w.waitServing("n1")
	w.submit("n1", "pre", 1, statemachine.EncodeAdd(1))

	// Background load keeps deciding while the membership changes under it.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var sent uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		seq := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			seq++
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_, err := w.node("n1").Submit(ctx, "bg", seq, statemachine.EncodeAdd(1))
			cancel()
			if err != nil {
				seq-- // retry the same sequence; dedup makes it safe
				time.Sleep(2 * time.Millisecond)
				continue
			}
			sent = seq
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	if _, err := w.node("n1").Reconfigure(ctx, []types.NodeID{"n1", "n2", "s1"}); err != nil {
		cancel()
		t.Fatal(err)
	}
	cancel()
	w.waitServing("s1")

	// Let the new configuration decide a while, then stop and converge.
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	total := sent + 1 // background adds + the preload add

	w.waitStat(func() bool {
		c1, a1 := w.node("n1").AppliedSlot()
		cs, as := s1.AppliedSlot()
		return c1 == cs && as >= a1
	}, "joiner to converge with the leader", 20*time.Second)

	// The converged joiner holds the exact state: every background add
	// applied exactly once.
	if v := counterValue(t, w.submit("s1", "chk", 1, statemachine.EncodeCounterGet())); v != total {
		t.Fatalf("counter=%d on joiner, want %d", v, total)
	}
	w.checkNoViolations()
}

// discardFuse cuts the power right behind the cut-th staged delete of a key
// of configuration 1's engine namespace: those deletes reach the platter,
// nothing staged later does, and every later write and Sync fails.
type discardFuse struct {
	*storage.MemStore
	mu    sync.Mutex
	cut   int
	seen  int
	blown chan struct{}
}

func (f *discardFuse) DeleteBuffered(key string) error {
	if err := f.MemStore.DeleteBuffered(key); err != nil {
		return err
	}
	if !strings.HasPrefix(key, "pxs/1/") {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.seen++; f.seen == f.cut {
		_ = f.MemStore.Sync()
		f.MemStore.PowerLoss()
		close(f.blown)
	}
	return nil
}

// TestDiscardPowerCutSweep cuts a member's power behind a prefix of the
// staged deletes that discard configuration 1's retired log, for prefixes
// across the whole discard. After each cut the member restarts from what
// survived, serves the current state, never builds configuration 1's engine
// again, and finishes the discard.
func TestDiscardPowerCutSweep(t *testing.T) {
	for cut := 1; ; cut += 16 {
		if cut > 1000 {
			t.Fatal("the discard staged more than 1000 deletes")
		}
		blew := false
		t.Run(fmt.Sprintf("cut%03d", cut), func(t *testing.T) { blew = discardPowerCut(t, cut) })
		if !blew || t.Failed() {
			return
		}
	}
}

// discardPowerCut runs one cut and reports whether the fuse blew; past the
// discard's last delete it never does, and the sweep ends.
func discardPowerCut(t *testing.T, cut int) bool {
	w := newWorld(t, transport.Options{})
	w.opts = boundOpts(w.opts)
	fuse := &discardFuse{MemStore: storage.NewMem(), cut: cut, blown: make(chan struct{})}
	w.newStore = func(id types.NodeID) storage.Store {
		if id == "n3" {
			return fuse
		}
		return storage.NewMem()
	}
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	seq := w.driveAdds("n1", "c1", 0, w.opts.logBound+5)
	waitCurrent(t, w.node("n3"), 2)
	select {
	case <-fuse.blown:
	case <-time.After(lingerOld + 2*time.Second):
		// The discard staged fewer deletes than cut: it has finished.
		return false
	}
	w.stopNode("n3")
	fuse.MemStore.Reopen()

	n3 := w.startNode("n3", statemachine.NewCounterMachine)
	if err := n3.Start(); err != nil {
		t.Fatalf("cut %d: restart: %v", cut, err)
	}
	w.waitServing("n3")
	seq = w.driveAdds("n1", "c1", seq, 5)
	if v := counterValue(t, w.submit("n3", "c1", seq+1, statemachine.EncodeAdd(1))); v != seq+1 {
		t.Fatalf("cut %d: counter via the restarted member = %d, want %d", cut, v, seq+1)
	}
	for deadline := time.Now().Add(lingerOld); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if runs, _ := runsAndRetained(n3); runs[1] {
			t.Fatalf("cut %d: the restarted member built configuration 1's engine again", cut)
		}
	}
	w.waitStat(func() bool { return !namespaces(t, fuse.MemStore)[1] }, "the discard of configuration 1 to finish", 5*time.Second)
	w.checkNoViolations()
	return true
}
