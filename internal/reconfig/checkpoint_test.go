package reconfig

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// ckptOpts tightens the checkpoint knobs so short tests cross every
// threshold: a checkpoint every 30 applied slots, 5 slots of margin, and a
// catch-up fetch once a member is 50 slots behind.
func ckptOpts(o Options) Options {
	o.checkpointInterval = 30
	o.checkpointMargin = 5
	o.catchupGapSlots = 50
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

// TestCheckpointProducerPublishesAndTruncates: under steady load every member
// periodically forks and publishes a checkpoint, the quorum exchange drives
// the truncation floor forward, and the engines' retained log stays bounded
// by the interval instead of growing with history.
func TestCheckpointProducerPublishesAndTruncates(t *testing.T) {
	w := newWorld(t, transport.Options{})
	w.opts = ckptOpts(w.opts)
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1")

	// Two waves of load with a wait between them: pacing coalesces the
	// publishes within one burst, so a second checkpoint (with an advanced
	// base) proves the producer is periodic, not once-only.
	members := []types.NodeID{"n1", "n2", "n3"}
	const ops = 200
	seq := w.driveAdds("n1", "c1", 0, ops/2)
	w.waitStat(func() bool {
		for _, id := range members {
			if w.node(id).Stats().CheckpointsPublished < 1 {
				return false
			}
		}
		return true
	}, "first checkpoint wave", 15*time.Second)
	firstBase := w.node("n1").Stats().CheckpointBase
	w.driveAdds("n1", "c1", seq, ops/2)
	w.waitStat(func() bool {
		for _, id := range members {
			st := w.node(id).Stats()
			if st.CheckpointsPublished < 2 || st.TruncatedSlots == 0 || st.CheckpointBase <= firstBase {
				return false
			}
			// The retained log is bounded by interval + margin plus whatever
			// was applied since the last floor advance — far below total
			// history. Polled, not sampled once: the second truncation wave
			// lands a quorum exchange after the second checkpoint does.
			if st.RetainedSlots > int64(2*w.opts.checkpointInterval+w.opts.checkpointMargin) {
				return false
			}
		}
		return true
	}, "every member to re-checkpoint past the first base and truncate to within 2·interval+margin", 15*time.Second)

	for _, id := range members {
		st := w.node(id).Stats()
		if st.CheckpointBase == 0 {
			t.Errorf("%s: no durable checkpoint base", id)
		}
		// The durable blob under the config's snapshot prefix must now be the
		// checkpoint, not the empty bootstrap snapshot.
		m, _, complete, err := storage.ReadChunked(w.stores[id], snapPrefix(1))
		if err != nil || !complete {
			t.Errorf("%s: checkpoint blob unreadable (complete=%v err=%v)", id, complete, err)
		} else if m.Base == 0 {
			t.Errorf("%s: snapshot prefix still holds the base-0 bootstrap snapshot", id)
		}
	}

	// The state is intact: one more add observes all prior increments.
	if v := counterValue(t, w.submit("n2", "c1", ops+1, statemachine.EncodeAdd(1))); v != ops+1 {
		t.Fatalf("counter=%d, want %d", v, ops+1)
	}
	w.checkNoViolations()
}

// TestCheckpointCatchupClosesGap: a member cut off while the others decide
// far past it (and truncate the slots it is missing) recovers by fetching
// the newest checkpoint — not by log replay, which truncation made
// impossible — and converges to the correct state.
func TestCheckpointCatchupClosesGap(t *testing.T) {
	w := newWorld(t, transport.Options{})
	w.opts = ckptOpts(w.opts)
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1")

	w.net.Isolate("n3")
	const ops = 250
	w.driveAdds("n1", "c1", 0, ops)

	// Survivors must have truncated past n3's position before the heal, so
	// the only way back is the checkpoint.
	w.waitStat(func() bool {
		for _, id := range []types.NodeID{"n1", "n2"} {
			if w.node(id).Stats().TruncatedSlots == 0 {
				return false
			}
		}
		return true
	}, "survivors to truncate", 15*time.Second)
	_, tip := w.node("n1").AppliedSlot()
	_, lag := w.node("n3").AppliedSlot()
	if lag >= tip {
		t.Fatalf("victim applied %d, survivors %d; no gap to close", lag, tip)
	}

	w.net.Restore("n3")
	w.waitStat(func() bool {
		_, s := w.node("n3").AppliedSlot()
		return s >= tip
	}, "victim to catch up", 20*time.Second)
	if f := w.node("n3").Stats().CatchupFetches; f == 0 {
		t.Fatal("victim caught up without a checkpoint fetch; the ablation path ran instead")
	}

	// The caught-up member serves with the exact state: its counter reflects
	// every increment once.
	if v := counterValue(t, w.submit("n3", "c1", ops+1, statemachine.EncodeAdd(1))); v != ops+1 {
		t.Fatalf("counter=%d after catch-up, want %d", v, ops+1)
	}
	w.checkNoViolations()
}

// TestTornCheckpointManifestFallsBackToReplay: a member whose durable
// checkpoint manifest is corrupted on disk must not brick on restart. Its
// log was never truncated (margin larger than history), so recovery falls
// back to the empty machine plus full log replay and reproduces the state.
func TestTornCheckpointManifestFallsBackToReplay(t *testing.T) {
	w := newWorld(t, transport.Options{})
	w.opts = ckptOpts(w.opts)
	w.opts.checkpointMargin = 100000 // floor - margin <= 0: no truncation ever
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1")

	const ops = 100
	w.driveAdds("n1", "c1", 0, ops)
	w.waitStat(func() bool {
		return w.node("n3").Stats().CheckpointsPublished > 0
	}, "victim to publish a checkpoint", 15*time.Second)
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

// TestTornManifestAfterTruncationRefetches: same torn manifest, but the
// member's own log HAS been truncated — replay from slot 1 is impossible, so
// the node must come up uninitialized and refetch the newest checkpoint from
// its peers before serving again.
func TestTornManifestAfterTruncationRefetches(t *testing.T) {
	w := newWorld(t, transport.Options{})
	w.opts = ckptOpts(w.opts)
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1")

	const ops = 200
	w.driveAdds("n1", "c1", 0, ops)
	w.waitStat(func() bool {
		return w.node("n3").Stats().TruncatedSlots > 0
	}, "victim to truncate its own log", 15*time.Second)
	_, tip := w.node("n1").AppliedSlot()

	w.stopNode("n3")
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
	}, "restarted victim to refetch a checkpoint", 20*time.Second)
	if n3.Stats().SnapshotsFetched == 0 && n3.Stats().CatchupFetches == 0 {
		t.Fatal("victim recovered without fetching; truncated-log replay should be impossible")
	}
	if v := counterValue(t, w.submit("n3", "c1", ops+1, statemachine.EncodeAdd(1))); v != ops+1 {
		t.Fatalf("counter=%d after refetch, want %d", v, ops+1)
	}
	w.checkNoViolations()
}

// TestStartRefusesSnapshotBelowEngineFloor: the install window. A catch-up
// install moves the engine first (SkipTo releases the log up to the new base)
// and commits the fetched snapshot to the store second; a crash in between
// leaves a complete snapshot at the old base B under a persisted truncation
// floor F > B. The slots in (B, F] exist nowhere on this node, so Start must
// treat that snapshot as no snapshot — installing it would pin the apply
// cursor at B for good — and the transfer's resume must not re-adopt it: the
// node comes up uninitialized and fetches a peer's checkpoint at or above F.
func TestStartRefusesSnapshotBelowEngineFloor(t *testing.T) {
	w := newWorld(t, transport.Options{})
	w.opts = ckptOpts(w.opts)
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1")
	st := w.stores["n3"]

	// The old snapshot: n3's first checkpoint, read once n3 is stopped.
	seq := w.driveAdds("n1", "c1", 0, 60)
	w.waitStat(func() bool {
		return w.node("n3").Stats().CheckpointsPublished > 0
	}, "victim to publish a checkpoint", 15*time.Second)
	w.stopNode("n3")
	old, oldChunks, complete, err := storage.ReadChunked(st, snapPrefix(1))
	if err != nil || !complete || old.Base == 0 {
		t.Fatalf("old snapshot: base %d complete %v err %v", old.Base, complete, err)
	}
	if err := w.startNode("n3", statemachine.NewCounterMachine).Start(); err != nil {
		t.Fatal(err)
	}

	// Run on until n3's engine has released its log past that base.
	floor := func() types.Slot {
		f, err := w.opts.withDefaults().engine.Floor(st, 1)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for deadline := time.Now().Add(20 * time.Second); floor() <= old.Base; {
		if time.Now().After(deadline) {
			t.Fatalf("victim's floor %d never passed the old base %d", floor(), old.Base)
		}
		seq = w.driveAdds("n1", "c1", seq, 10)
	}
	w.stopNode("n3")
	f := floor()
	// The crash: the engine is at the new floor, the store still at the old base.
	if err := storage.WriteChunkedCommit(storage.Staged(st), snapPrefix(1), old, func(i int) []byte { return oldChunks[i] }); err != nil {
		t.Fatal(err)
	}
	for _, id := range []types.NodeID{"n1", "n2"} {
		for deadline := time.Now().Add(20 * time.Second); types.Slot(w.node(id).Stats().CheckpointBase) < f; {
			if time.Now().After(deadline) {
				t.Fatalf("%s never checkpointed at or above the victim's floor %d", id, f)
			}
			seq = w.driveAdds("n1", "c1", seq, 5)
		}
	}
	_, tip := w.node("n1").AppliedSlot()

	// Only the floor rule can save the victim: the gap-triggered catch-up
	// fetch that would paper over a stale install is out of reach.
	w.opts.catchupGapSlots = 1 << 30
	n3 := w.startNode("n3", statemachine.NewCounterMachine)
	if err := n3.Start(); err != nil {
		t.Fatal(err)
	}
	if _, s := n3.AppliedSlot(); s == old.Base {
		t.Fatalf("Start installed its own snapshot at base %d below the engine floor %d", old.Base, f)
	}
	w.waitStat(func() bool {
		_, s := n3.AppliedSlot()
		return s >= tip
	}, "restarted victim to fetch a checkpoint at or above its floor and catch up", 10*time.Second)
	if n3.Stats().SnapshotsFetched == 0 {
		t.Fatal("victim caught up without fetching a snapshot")
	}
	if m, _, _, err := storage.ReadChunked(st, snapPrefix(1)); err != nil || m.Base < f {
		t.Fatalf("victim holds base %d (err %v) under floor %d", m.Base, err, f)
	}
	if v := counterValue(t, w.submit("n3", "c1", seq+1, statemachine.EncodeAdd(1))); v != seq+1 {
		t.Fatalf("counter=%d after refetch, want %d", v, seq+1)
	}
	w.checkNoViolations()
}

// TestNoCheckpointsAblationNeverTruncates: with NoCheckpoints set, the
// producer, truncation and catch-up paths all stay cold and the full log is
// retained — the K1 ablation contract.
func TestNoCheckpointsAblationNeverTruncates(t *testing.T) {
	w := newWorld(t, transport.Options{})
	w.opts = ckptOpts(w.opts)
	w.opts.NoCheckpoints = true
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1")

	const ops = 120
	w.driveAdds("n1", "c1", 0, ops)
	// Give housekeeping ample ticks to (wrongly) trigger anything.
	time.Sleep(200 * time.Millisecond)
	for _, id := range []types.NodeID{"n1", "n2", "n3"} {
		st := w.node(id).Stats()
		if st.CheckpointsPublished != 0 || st.TruncatedSlots != 0 || st.CatchupFetches != 0 {
			t.Errorf("%s: checkpoint machinery ran under NoCheckpoints: %+v", id, st)
		}
		if st.RetainedSlots < int64(ops) {
			t.Errorf("%s: retains only %d slots; ablation must keep the full log", id, st.RetainedSlots)
		}
	}
	w.checkNoViolations()
}

// TestRestartReplayFloodSurvivesSmallBuffer pins the restart-recovery flood
// against the bounded decision buffer: at startup the engine redelivers its
// whole retained log in one burst, far faster than the apply stage drains
// it. The buffer must treat that contiguous backlog as working set, not as
// parked decisions — dropping its head cuts an unfillable gap right in
// front of the apply cursor (delivery is once-only), which with catch-up
// disabled (NoCheckpoints) is a permanent wedge. Regression for a K1
// failure: the full-replay arm's victim recovered 51k decisions, dropped
// everything past the 16384-slot cap, and stalled forever.
func TestRestartReplayFloodSurvivesSmallBuffer(t *testing.T) {
	w := newWorld(t, transport.Options{})
	w.opts = ckptOpts(w.opts)
	w.opts.NoCheckpoints = true
	w.opts.decisionBuffer = 32 // far below the replayed log length
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
	if drops := n3.Stats().DecisionBufferDrops; drops != 0 {
		t.Errorf("restart replay dropped %d contiguous backlog decisions", drops)
	}
	// The replayed state is exact: one Get answered by n3's own machine.
	reply := w.submit("n3", "probe", 1, statemachine.EncodeCounterGet())
	if got := counterValue(t, reply); got != ops {
		t.Errorf("counter after restart replay = %d, want %d", got, ops)
	}
	w.checkNoViolations()
}

// TestDecisionBufferBoundedUnderSpeculativeTransfer: a joiner that orders
// decisions speculatively while its snapshot transfer drags must not buffer
// them without bound. While the node cannot apply (parked decisions), the
// buffer stays within the configured cap; once initialized, the only burst
// beyond the cap is the contiguous catch-up tail, itself bounded by what the
// engines retain under truncation. Whether or not drops occurred the joiner
// converges to the correct state — dropped slots are re-covered by a
// checkpoint fetch.
func TestDecisionBufferBoundedUnderSpeculativeTransfer(t *testing.T) {
	w := newWorld(t, transport.Options{
		BaseLatency: 200 * time.Microsecond,
		Jitter:      100 * time.Microsecond,
		Seed:        7,
	})
	w.opts = ckptOpts(w.opts)
	w.opts.decisionBuffer = 24
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	s1 := w.startNode("s1", statemachine.NewCounterMachine)
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	w.waitServing("n1")

	// Preload enough state that s1's snapshot transfer is not instant.
	const big = 1 << 20
	w.submit("n1", "pre", 1, statemachine.EncodeAdd(1))
	_ = big

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

	// Cap, plus the post-install contiguous replay tail (exempt from drops;
	// bounded by the retained engine log under truncation), plus slack.
	lim := int64(w.opts.decisionBuffer + 2*w.opts.checkpointInterval + w.opts.checkpointMargin + w.opts.catchupGapSlots)
	for _, id := range []types.NodeID{"n1", "n2", "n3", "s1"} {
		st := w.node(id).Stats()
		if st.DecisionBufferHigh > lim {
			t.Errorf("%s: decision buffer high-water %d exceeds bound %d", id, st.DecisionBufferHigh, lim)
		}
	}
	// The converged joiner holds the exact state: every background add
	// applied exactly once.
	if v := counterValue(t, w.submit("s1", "chk", 1, statemachine.EncodeCounterGet())); v != total {
		t.Fatalf("counter=%d on joiner, want %d", v, total)
	}
	w.checkNoViolations()
}
