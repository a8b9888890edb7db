package reconfig

import (
	"testing"
	"time"

	"repro/internal/statemachine"
	"repro/internal/transport"
	"repro/internal/types"
)

// Tests of engine-run retirement: the tick drops the run of a configuration
// older than the current one once it has lingered lingerOld, keeps what it
// counted, and nothing starts its engine again.

var retireIDs = []types.NodeID{"n1", "n2", "n3", "s1"}

// retireChurn runs k reconfigurations of n1, n2 and n3 with the spare s1,
// which trade places each time, with enough load in each configuration for a
// checkpoint and a truncation. It returns once every node has been in
// configuration k+1 for lingerOld plus three ticks. Until the test ends it
// samples every node's counters and fails the test when one the benchmark
// takes deltas of goes backwards.
func retireChurn(t *testing.T, k int) *world {
	t.Helper()
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond})
	w.opts = ckptOpts(w.opts)
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	spareNode(t, w, "s1")

	stop, watched := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { close(stop); <-watched }) // before the world stops its nodes
	go func() {
		defer close(watched)
		last := make(map[types.NodeID]NodeStats)
		for {
			for _, id := range retireIDs {
				now, was := w.node(id).Stats(), last[id]
				for _, c := range []struct {
					name     string
					was, now int64
				}{
					{"GroupCommits", was.GroupCommits, now.GroupCommits},
					{"TruncatedSlots", was.TruncatedSlots, now.TruncatedSlots},
					{"DroppedInbound", was.DroppedInbound, now.DroppedInbound},
					{"SpeculativeDecides", was.SpeculativeDecides, now.SpeculativeDecides},
				} {
					if c.now < c.was {
						t.Errorf("%s: %s went backwards, %d -> %d", id, c.name, c.was, c.now)
					}
				}
				last[id] = now
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	var seq uint64
	for i := 1; i <= k; i++ {
		in := types.NodeID("s1")
		if i%2 == 0 {
			in = "n3"
		}
		ctx, cancel := contextWithTimeout(10 * time.Second)
		_, err := w.node("n1").Reconfigure(ctx, []types.NodeID{"n1", "n2", in})
		cancel()
		if err != nil {
			t.Fatalf("reconfiguration %d: %v", i, err)
		}
		seq = w.driveAdds("n1", "c", seq, 40)
	}
	for _, id := range retireIDs {
		waitCurrent(t, w.node(id), types.ConfigID(k+1))
	}
	time.Sleep(lingerOld + 3*retryInterval)
	return w
}

// waitRetired waits until n holds no engine run of a configuration older than
// its current one and its RetainedSlots is what its live runs hold, and
// returns how many runs it holds. The wait covers a runner whose ticks came
// late; a node that never drops a run fails it.
func waitRetired(w *world, id types.NodeID) (runs int) {
	w.t.Helper()
	n := w.node(id)
	var old []types.ConfigID
	var live int64
	probe := func() bool {
		n.mu.Lock()
		old, live, runs = nil, 0, len(n.engines)
		for cid, run := range n.engines {
			live += run.eng.Counters().RetainedSlots
			if cid < n.curID {
				old = append(old, cid)
			}
		}
		n.mu.Unlock()
		return len(old) == 0 && n.Stats().RetainedSlots == live
	}
	deadline := time.Now().Add(5 * time.Second)
	for !probe() {
		if time.Now().After(deadline) {
			cur, _ := n.AppliedSlot()
			w.t.Fatalf("%s in configuration %d holds runs of %v; RetainedSlots %d, live runs hold %d",
				id, cur, old, n.Stats().RetainedSlots, live)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return runs
}

// After k reconfigurations and the linger, no node holds an engine run of a
// configuration older than its current one, and RetainedSlots sums its live
// runs alone; no counter the benchmark reads went backwards on the way, so a
// dropped run's counts moved into the node's own. A node that never drops a
// run holds one for every configuration it belonged to.
func TestRetiredEngineRunsAreDropped(t *testing.T) {
	const k = 10
	w := retireChurn(t, k)
	for _, id := range retireIDs {
		want := 0
		if w.node(id).CurrentConfig().IsMember(id) {
			want = 1
		}
		if runs := waitRetired(w, id); runs != want {
			t.Errorf("%s holds %d engine runs, want %d", id, runs, want)
		}
		st := w.node(id).Stats()
		t.Logf("%s: group commits %d, truncated %d, retained %d, speculative decides %d",
			id, st.GroupCommits, st.TruncatedSlots, st.RetainedSlots, st.SpeculativeDecides)
	}
	w.checkNoViolations()
}

// Gossip replays a peer's whole chain through handleAnnounce, and its records
// name configurations whose runs this node has retired. Re-announcing every
// record must start none of their engines again.
func TestReannouncedChainStartsNoRetiredEngine(t *testing.T) {
	w := retireChurn(t, 4)
	recs := w.node("n1").ChainRecords()
	for _, id := range retireIDs {
		before := waitRetired(w, id)
		n := w.node(id)
		for _, rec := range recs {
			n.handleAnnounce(rec)
		}
		n.mu.Lock()
		after := len(n.engines)
		n.mu.Unlock()
		if after != before {
			t.Errorf("%s: re-announcing its chain took its engine runs from %d to %d", id, before, after)
		}
	}
	w.checkNoViolations()
}
