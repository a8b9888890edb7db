// Package smrtest is a conformance suite for smr.Replica implementations: the
// observable contract the composition layer relies on — gap-free in-order
// decision delivery, agreement across replicas, progress from any proposer,
// an engine that a stalled consumer does not stall, and clean stop semantics —
// stated once, independent of any engine's internals. Every engine's tests
// invoke Run with a builder.
package smrtest

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/smr"
	"repro/internal/transport"
	"repro/internal/types"
)

// Cluster is one running engine group under test.
type Cluster struct {
	Engines map[types.NodeID]smr.Replica
	Network *transport.Network
	Cleanup func()
}

// Builder constructs a started engine per member over a fresh network.
type Builder func(t *testing.T, members []types.NodeID) Cluster

// Run executes the conformance suite against the builder.
func Run(t *testing.T, build Builder) {
	t.Run("SingleNodeOrdering", func(t *testing.T) { runSingleNodeOrdering(t, build) })
	t.Run("AgreementAcrossProposers", func(t *testing.T) { runAgreement(t, build) })
	t.Run("StopSemantics", func(t *testing.T) { runStopSemantics(t, build) })
	t.Run("ProgressAfterLeaderIsolation", func(t *testing.T) { runLeaderIsolation(t, build) })
	t.Run("StalledConsumer", func(t *testing.T) { runStalledConsumer(t, build) })
}

type collector struct {
	mu  sync.Mutex
	seq map[types.NodeID][]smr.Decision
	wg  sync.WaitGroup
	// gate holds one member's consumer while locked (runStalledConsumer).
	gate map[types.NodeID]*sync.Mutex
}

func collect(c *Cluster) *collector {
	col := &collector{
		seq:  make(map[types.NodeID][]smr.Decision, len(c.Engines)),
		gate: make(map[types.NodeID]*sync.Mutex, len(c.Engines)),
	}
	for id, eng := range c.Engines {
		id, eng, gate := id, eng, new(sync.Mutex)
		col.gate[id] = gate
		col.wg.Add(1)
		go func() {
			defer col.wg.Done()
			for {
				gate.Lock()
				gate.Unlock()
				d, ok := <-eng.Decisions()
				if !ok {
					return
				}
				col.mu.Lock()
				col.seq[id] = append(col.seq[id], d)
				col.mu.Unlock()
			}
		}()
	}
	return col
}

func (c *collector) appCount(id types.NodeID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, d := range c.seq[id] {
		if d.Cmd.Kind == types.CmdApp {
			n++
		}
	}
	return n
}

// appKey identifies one proposed application command.
type appKey struct {
	client types.NodeID
	seq    uint64
}

// appSeen returns the distinct application commands id has delivered. A
// re-proposed command may be decided twice (engines do not deduplicate, the
// layer above does), so agreement counts distinct commands, not decisions.
func (c *collector) appSeen(id types.NodeID) map[appKey]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[appKey]bool)
	for _, d := range c.seq[id] {
		if d.Cmd.Kind == types.CmdApp {
			seen[appKey{d.Cmd.Client, d.Cmd.Seq}] = true
		}
	}
	return seen
}

// verify asserts gap-free slots and cross-node agreement on common prefixes.
func (c *collector) verify(t *testing.T) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var ref []smr.Decision
	for _, seq := range c.seq {
		if len(seq) > len(ref) {
			ref = seq
		}
	}
	for id, seq := range c.seq {
		for i, d := range seq {
			if d.Slot != types.Slot(i+1) {
				t.Fatalf("%s: slot %d at index %d (gap/disorder)", id, d.Slot, i)
			}
			if !d.Cmd.Equal(ref[i].Cmd) {
				t.Fatalf("%s: agreement violated at slot %d", id, d.Slot)
			}
		}
	}
}

// deadlineScale stretches the conformance deadlines on starved runners.
// The adversarial suites retransmit their way through 3% loss and heavy
// jitter; under the race detector's ~10x slowdown on a single-core runner
// an engine can blow a flat 20s agreement deadline. GOMAXPROCS is the signal available here for "every engine
// goroutine is time-slicing one core", so deadlines scale up when it is
// small instead of being tuned to the fastest machine that ever passed.
// The timeouts only bound how long a *stuck* run burns before failing —
// a healthy run returns as soon as the condition holds — so stretching
// them costs nothing on passes.
func deadlineScale() time.Duration {
	if procs := runtime.GOMAXPROCS(0); procs < 4 {
		return time.Duration(5 - procs) // 1 core → 4x, 2 → 3x, 3 → 2x
	}
	return 1
}

func waitFor(t *testing.T, cond func() bool, what string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout * deadlineScale())
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("conformance: timed out waiting for %s", what)
}

func proposeRetry(t *testing.T, eng smr.Engine, cmd types.Command) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if err := eng.Propose(cmd); err == nil {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("conformance: propose kept failing")
}

func appCmd(client string, seq uint64) types.Command {
	return types.Command{Kind: types.CmdApp, Client: types.NodeID(client), Seq: seq,
		Data: []byte(fmt.Sprintf("%s/%d", client, seq))}
}

func runSingleNodeOrdering(t *testing.T, build Builder) {
	c := build(t, []types.NodeID{"n1"})
	defer c.Cleanup()
	col := collect(&c)
	for i := 1; i <= 15; i++ {
		proposeRetry(t, c.Engines["n1"], appCmd("c", uint64(i)))
	}
	seq := uint64(15) // the burst, then fresh commands for any it lost
	decideUntil(t, c.Engines["n1"], col, &seq, 15)
	col.verify(t)
}

// reproposeAfter is how long runAgreement lets a proposal go undecided at its
// proposer before proposing it again.
const reproposeAfter = 500 * time.Millisecond

func runAgreement(t *testing.T, build Builder) {
	members := []types.NodeID{"n1", "n2", "n3"}
	c := build(t, members)
	defer c.Cleanup()
	col := collect(&c)
	const per = 10
	proposed := make(map[types.NodeID][]types.Command, len(members))
	for i := 1; i <= per; i++ {
		for _, m := range members {
			cmd := appCmd("c-"+string(m), uint64(i))
			proposeRetry(t, c.Engines[m], cmd)
			proposed[m] = append(proposed[m], cmd)
		}
	}
	// smr.Engine.Propose is best-effort — an accepted proposal "may be lost
	// (callers retry on timeout)", and on a lossy fabric a follower's forward
	// sometimes is — so the caller here retries like the composition layer
	// does: whatever its proposer has not seen decided is proposed again.
	retryAt := time.Now().Add(reproposeAfter)
	waitFor(t, func() bool {
		all := true
		for _, m := range members {
			if len(col.appSeen(m)) < 3*per {
				all = false
			}
		}
		if all || time.Now().Before(retryAt) {
			return all
		}
		retryAt = time.Now().Add(reproposeAfter)
		for _, m := range members {
			seen := col.appSeen(m)
			for _, cmd := range proposed[m] {
				if !seen[appKey{cmd.Client, cmd.Seq}] {
					_ = c.Engines[m].Propose(cmd) // ErrBusy: the next round retries
				}
			}
		}
		return false
	}, "all decisions everywhere", 20*time.Second)
	col.verify(t)
}

func runStopSemantics(t *testing.T, build Builder) {
	c := build(t, []types.NodeID{"n1"})
	eng := c.Engines["n1"]
	col := collect(&c)
	var seq uint64
	decideUntil(t, eng, col, &seq, 1)

	eng.Stop()
	eng.Stop() // idempotent
	if err := eng.Propose(appCmd("c", seq+1)); err != smr.ErrStopped {
		t.Fatalf("Propose after Stop: %v", err)
	}
	// The decision channel must close (the collector goroutine exits).
	done := make(chan struct{})
	go func() { col.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("decision channel not closed by Stop")
	}
	c.Cleanup()
}

func runLeaderIsolation(t *testing.T, build Builder) {
	members := []types.NodeID{"n1", "n2", "n3"}
	c := build(t, members)
	defer c.Cleanup()
	col := collect(&c)

	var seq uint64
	decideUntil(t, c.Engines["n1"], col, &seq, 1)

	// Find the leader and cut it off.
	var leader types.NodeID
	waitFor(t, func() bool {
		for id, eng := range c.Engines {
			if _, am := eng.Leader(); am {
				leader = id
				return true
			}
		}
		return false
	}, "a leader", 10*time.Second)
	c.Network.Isolate(leader)

	var survivor types.NodeID
	for _, m := range members {
		if m != leader {
			survivor = m
			break
		}
	}
	// Keep proposing through a survivor until the new regime commits it.
	after := appCmd("c", seq+1)
	waitFor(t, func() bool {
		_ = c.Engines[survivor].Propose(after)
		return col.appSeen(survivor)[appKey{after.Client, after.Seq}]
	}, "post-isolation decision", 20*time.Second)
	col.verify(t)
}

// stallGap is how many commands runStalledConsumer decides behind a consumer
// that stopped reading: more than an engine's decision channel holds (the
// Paxos engine's holds 1 024).
const stallGap = 1500

// runStalledConsumer stops one member's consumer and proposes stallGap
// commands through that member. An engine whose loop waited on its consumer
// would stop forwarding or deciding them, so the other members delivering
// them all shows the stalled member's engine kept going. Once its consumer
// resumes, it must get every decision, in order, with no gap.
func runStalledConsumer(t *testing.T, build Builder) {
	members := []types.NodeID{"n1", "n2", "n3"}
	c := build(t, members)
	defer c.Cleanup()
	col := collect(&c)
	stalled, eng, gate := members[0], c.Engines[members[0]], col.gate[members[0]]
	gate.Lock()
	held := true
	defer func() {
		if held {
			gate.Unlock()
		}
	}()

	cmds := make([]types.Command, stallGap)
	for i := range cmds {
		cmds[i] = appCmd("s", uint64(i+1))
		proposeRetry(t, eng, cmds[i])
	}
	retryAt := time.Now().Add(reproposeAfter)
	waitFor(t, func() bool {
		done := len(col.appSeen(members[1])) == stallGap && len(col.appSeen(members[2])) == stallGap
		if done || time.Now().Before(retryAt) {
			return done
		}
		retryAt = time.Now().Add(reproposeAfter)
		seen := col.appSeen(members[1])
		for _, cmd := range cmds {
			if !seen[appKey{cmd.Client, cmd.Seq}] {
				_ = eng.Propose(cmd) // ErrBusy: the next round retries
			}
		}
		return false
	}, "every command decided at the members still reading", 20*time.Second)
	if got := col.appCount(stalled); got > 1 {
		t.Fatalf("%s's stalled consumer took %d decisions", stalled, got)
	}
	held = false
	gate.Unlock()
	waitFor(t, func() bool { return len(col.appSeen(stalled)) == stallGap }, "the stalled consumer's backlog", 20*time.Second)
	col.verify(t)
}

// decideUntil proposes fresh commands through n1, numbered after *seq, until
// its consumer has n of them: a lost proposal (smr.Engine.Propose may lose
// one) is replaced by the next.
func decideUntil(t *testing.T, eng smr.Engine, col *collector, seq *uint64, n int) {
	waitFor(t, func() bool {
		if col.appCount("n1") >= n {
			return true
		}
		*seq++
		_ = eng.Propose(appCmd("c", *seq))
		return false
	}, fmt.Sprintf("%d decisions", n), 10*time.Second)
}
