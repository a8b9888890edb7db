package harness

// K1: lagging-replica catch-up shootout. One member of a three-node composed
// deployment is cut off the network while the survivors decide `lagSlots`
// more slots over a preloaded state, then the link heals and the clock runs
// until the victim's applied slot reaches the tip the survivors settled at.
// The checkpoint arm closes the gap by fetching the survivors' newest
// within-configuration checkpoint (the log below its base is truncated, so
// slot-by-slot replay is not even possible); the NoCheckpoints ablation
// replays every missed slot through the engine's catch-up path. The same
// deployment then measures restart recovery: the victim is crash-restarted
// and timed until it re-reaches the tip — bounded log replay above the
// newest durable checkpoint vs full replay from the configuration's
// initial snapshot.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/statemachine"
	"repro/internal/types"
)

// K1Row is one arm of the catch-up shootout.
type K1Row struct {
	Checkpoints bool          // false = NoCheckpoints full-replay ablation
	LagSlots    int64         // decided-slot gap actually injected
	CatchupTook time.Duration // heal -> victim applied reaches the tip
	RestartTook time.Duration // crash-restart -> victim re-reaches the tip
	Published   int64         // checkpoints made durable, summed over nodes
	Fetches     int64         // checkpoint catch-up installs, summed over nodes
	Truncated   int64         // log slots released below checkpoint floors
	Retained    int64         // decided slots still held at run end, worst node
}

// K1Result is the shootout at one state size and lag depth.
type K1Result struct {
	StateBytes int
	LagTarget  int
	Rows       []K1Row
}

// RunK1Catchup runs both arms of the catch-up shootout: checkpoints on
// (fetch + truncated log) vs the NoCheckpoints ablation (full replay,
// unbounded log). Each arm uses its own fresh deployment.
func RunK1Catchup(tuning Tuning, stateBytes, lagSlots, clients int) (K1Result, error) {
	WarmHeap(tuning, stateBytes)
	res := K1Result{StateBytes: stateBytes, LagTarget: lagSlots}
	for _, ckpt := range []bool{true, false} {
		t := tuning
		t.Node.NoCheckpoints = !ckpt
		row, err := runK1Arm(t, stateBytes, lagSlots, clients)
		if err != nil {
			return res, fmt.Errorf("k1 checkpoints=%v: %w", ckpt, err)
		}
		row.Checkpoints = ckpt
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runK1Arm(t Tuning, stateBytes, lagSlots, clients int) (K1Row, error) {
	var row K1Row
	members := nodeNames("n", 3)
	dep, err := deploy(t, statemachine.NewKVMachine, members, nil)
	if err != nil {
		return row, err
	}
	defer dep.Close()
	if err := waitWarm(dep); err != nil {
		return row, err
	}
	if stateBytes > 0 {
		if _, err := preload(context.Background(), dep, stateBytes); err != nil {
			return row, err
		}
	}

	// Cut off a member that does not currently lead, so the survivors keep a
	// quorum and the leader keeps deciding while the victim falls behind.
	victim := members[len(members)-1]
	if dep.Leader(0) == victim {
		victim = members[0]
	}
	survivors := make([]types.NodeID, 0, len(members)-1)
	for _, id := range members {
		if id != victim {
			survivors = append(survivors, id)
		}
	}
	dep.Network().Isolate(victim)
	_, lag0 := dep.Node(0, victim).AppliedSlot()

	target := lag0 + types.Slot(lagSlots)
	if err := k1Drive(dep, survivors, clients, target, 2*time.Minute); err != nil {
		return row, err
	}
	tip := k1Settle(dep, survivors, 15*time.Second)

	healAt := time.Now()
	dep.Network().Restore(victim)
	if err := k1WaitApplied(dep, victim, tip, 2*time.Minute); err != nil {
		return row, fmt.Errorf("catch-up: %w", err)
	}
	row.CatchupTook = time.Since(healAt)
	row.LagSlots = int64(tip - lag0)

	// Collect counters before the restart phase: a restart replaces the
	// victim's node object, zeroing its in-memory stats.
	for _, id := range members {
		st := dep.Node(0, id).Stats()
		row.Published += st.CheckpointsPublished
		row.Fetches += st.CatchupFetches
		row.Truncated += st.TruncatedSlots
		if st.RetainedSlots > row.Retained {
			row.Retained = st.RetainedSlots
		}
	}

	crashAt := time.Now()
	dep.Crash(victim)
	if err := dep.Restart(victim); err != nil {
		return row, err
	}
	if err := k1WaitApplied(dep, victim, tip, 2*time.Minute); err != nil {
		return row, fmt.Errorf("restart recovery: %w", err)
	}
	row.RestartTook = time.Since(crashAt)
	return row, nil
}

// k1Drive runs closed-loop writers against the surviving members only (the
// victim is unreachable; routing through the cluster's Submit would waste half
// the client time on timeouts) until their applied slot reaches target.
func k1Drive(dep *cluster.Cluster, survivors []types.NodeID, clients int, target types.Slot, timeout time.Duration) error {
	if clients < 1 {
		clients = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := types.NodeID(fmt.Sprintf("k1w%d", i))
			key := fmt.Sprintf("lag%d", i)
			val := []byte("0123456789abcdef")
			seq := uint64(0)
			for ctx.Err() == nil {
				seq++
				op := statemachine.EncodePut(key, val)
				for ctx.Err() == nil {
					n := dep.Node(0, survivors[(int(seq)+i)%len(survivors)])
					attempt, done := context.WithTimeout(ctx, 500*time.Millisecond)
					_, err := n.Submit(attempt, client, seq, op)
					done()
					if err == nil {
						break
					}
					select {
					case <-ctx.Done():
					case <-time.After(2 * time.Millisecond):
					}
				}
			}
		}(i)
	}
	deadline := time.Now().Add(timeout)
	for k1Tip(dep, survivors) < target {
		if time.Now().After(deadline) {
			cancel()
			wg.Wait()
			return fmt.Errorf("k1: survivors reached slot %d of %d within %s", k1Tip(dep, survivors), target, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	wg.Wait()
	return nil
}

// k1Tip is the highest applied slot over the given nodes.
func k1Tip(dep *cluster.Cluster, ids []types.NodeID) types.Slot {
	var tip types.Slot
	for _, id := range ids {
		if n := dep.Node(0, id); n != nil {
			if _, s := n.AppliedSlot(); s > tip {
				tip = s
			}
		}
	}
	return tip
}

// k1Settle waits (bounded) for every survivor to apply the same slot after
// load stops, so "caught up" is a fixed post — not a moving tip.
func k1Settle(dep *cluster.Cluster, ids []types.NodeID, timeout time.Duration) types.Slot {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		lo, hi := types.Slot(1<<62), types.Slot(0)
		for _, id := range ids {
			_, s := dep.Node(0, id).AppliedSlot()
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
		if lo == hi && hi > 0 {
			return hi
		}
		time.Sleep(2 * time.Millisecond)
	}
	return k1Tip(dep, ids)
}

// k1WaitApplied polls until the node's applied slot reaches at least target.
func k1WaitApplied(dep *cluster.Cluster, id types.NodeID, target types.Slot, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if n := dep.Node(0, id); n != nil {
			if _, s := n.AppliedSlot(); s >= target {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	_, s := dep.Node(0, id).AppliedSlot()
	return fmt.Errorf("k1: %s stuck at slot %d of %d after %s", id, s, target, timeout)
}
