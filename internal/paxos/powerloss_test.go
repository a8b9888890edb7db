package paxos

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/smr"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// life is one incarnation of a replica and everything it delivered.
type life struct {
	rep  *Replica
	done chan struct{} // closed when the collector has drained Decisions()

	mu        sync.Mutex
	delivered []smr.Decision
}

func (l *life) deliveredSoFar() []smr.Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]smr.Decision(nil), l.delivered...)
}

// powerCluster is a cluster whose members lose power: at one instant a
// member's store stops taking writes and forgets everything not yet synced,
// then its process is stopped and a new one recovers from what is left. (The
// other restarts in this package stop the process gracefully on a store that
// keeps every staged write, which loses nothing.) It remembers every decision
// any incarnation ever handed to its application.
type powerCluster struct {
	t      *testing.T
	net    *transport.Network
	cfg    types.Config
	stores map[types.NodeID]*storage.MemStore

	mu        sync.Mutex
	lives     map[types.NodeID]*life
	ever      map[types.Slot]types.Command // delivered by anyone, ever
	restarts  int
	lostTails int // restarts that recovered fewer decided slots than the dead incarnation had delivered
}

func newPowerCluster(t *testing.T, n int, netOpts transport.Options) *powerCluster {
	t.Helper()
	members := make([]types.NodeID, n)
	for i := range members {
		members[i] = types.NodeID(fmt.Sprintf("n%d", i+1))
	}
	pc := &powerCluster{
		t:      t,
		net:    transport.NewNetwork(netOpts),
		cfg:    types.MustConfig(1, members...),
		stores: make(map[types.NodeID]*storage.MemStore, n),
		lives:  make(map[types.NodeID]*life, n),
		ever:   make(map[types.Slot]types.Command),
	}
	for _, id := range members {
		pc.stores[id] = storage.NewMem()
		pc.boot(id)
	}
	t.Cleanup(func() {
		for _, id := range members {
			l := pc.life(id)
			l.rep.Stop()
			<-l.done
		}
		pc.net.Close()
	})
	return pc
}

func (pc *powerCluster) life(id types.NodeID) *life {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.lives[id]
}

// boot recovers a replica from id's store and starts it; it returns how many
// decided slots recovery found. The chaos injector calls it off the test's
// goroutine, so failures are reported with Error: a replica that cannot
// recover is a failed run, and the members that do come up still converge.
func (pc *powerCluster) boot(id types.NodeID) int {
	pc.t.Helper()
	rep, err := New(pc.cfg, id, pc.net.Endpoint(id), pc.stores[id], uint64(pc.cfg.ID), fastOpts(int64(len(id))))
	if err != nil {
		pc.t.Errorf("%s: recovery: %v", id, err)
		return 0
	}
	recovered := len(rep.decided) // the loop is not running yet
	l := &life{rep: rep, done: make(chan struct{})}
	if err := rep.Start(); err != nil {
		pc.t.Error(err)
	}
	go func() {
		defer close(l.done)
		for d := range rep.Decisions() {
			l.mu.Lock()
			l.delivered = append(l.delivered, d)
			l.mu.Unlock()
		}
	}()
	pc.mu.Lock()
	pc.lives[id] = l
	pc.mu.Unlock()
	return recovered
}

// remember folds one incarnation's deliveries into the record of everything
// ever delivered; two incarnations that disagree on a slot break agreement.
func (pc *powerCluster) remember(id types.NodeID, seq []smr.Decision) {
	pc.t.Helper()
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for _, d := range seq {
		if prev, ok := pc.ever[d.Slot]; ok && !prev.Equal(d.Cmd) {
			pc.t.Errorf("agreement violated at slot %d: %s delivered %v, an earlier delivery was %v", d.Slot, id, d.Cmd, prev)
		}
		pc.ever[d.Slot] = d.Cmd
	}
}

// powerLoss cuts id's power and brings it back.
func (pc *powerCluster) powerLoss(id types.NodeID) {
	pc.t.Helper()
	l := pc.life(id)
	// Counted first: the writes a replica still attempts on a dead disk fail,
	// and it counts those too.
	if v := l.rep.Stats().InvariantViolations; v != 0 {
		pc.t.Errorf("%s: %d invariant violations before its power loss", id, v)
	}
	pc.stores[id].PowerLoss()
	l.rep.Stop()
	<-l.done
	had := l.deliveredSoFar()
	pc.remember(id, had)
	pc.stores[id].Reopen()
	recovered := pc.boot(id)
	pc.mu.Lock()
	pc.restarts++
	if recovered < len(had) {
		pc.lostTails++
	}
	pc.mu.Unlock()
}

// converge waits until every member has delivered everything anyone ever
// delivered, and checks that they all delivered the same thing: every member
// the same command at every slot from 1 on, nothing that was ever handed to
// an application missing or changed, no invariant violation counted.
func (pc *powerCluster) converge() {
	pc.t.Helper()
	for _, id := range pc.cfg.Members {
		pc.remember(id, pc.life(id).deliveredSoFar())
	}
	pc.mu.Lock()
	var top types.Slot
	for slot := range pc.ever {
		if slot > top {
			top = slot
		}
	}
	pc.mu.Unlock()
	if top == 0 {
		pc.t.Fatal("nothing was ever decided")
	}
	deadline := time.Now().Add(15 * time.Second)
	for _, id := range pc.cfg.Members {
		for types.Slot(len(pc.life(id).deliveredSoFar())) < top {
			if time.Now().After(deadline) {
				p := pc.life(id).rep.Progress()
				pc.t.Fatalf("%s stuck at slot %d of %d (max seen %d)", id, p.Delivered, top, p.MaxDecidedSeen)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	for _, id := range pc.cfg.Members {
		l := pc.life(id)
		for i, d := range l.deliveredSoFar() {
			if d.Slot != types.Slot(i+1) {
				pc.t.Fatalf("%s: delivery %d has slot %d (gap or disorder)", id, i, d.Slot)
			}
		}
		pc.remember(id, l.deliveredSoFar())
		if v := l.rep.Stats().InvariantViolations; v != 0 {
			pc.t.Fatalf("%s: %d invariant violations", id, v)
		}
	}
}

// TestChaosAgreementPowerLoss is TestChaosAgreement's schedule — isolations
// and 5% message loss under a stream of proposals — with every other fault a
// power loss: whatever the victim had staged and not synced is gone, dec/
// markers that were riding the next barrier among it, and the slots they
// marked have to be learned again through catch-up. Over every seed: the
// members agree, in order, on everything; nothing any incarnation ever
// delivered — the engine's form of an acknowledgement — is lost or changed;
// and no replica counts an invariant violation.
func TestChaosAgreementPowerLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test in -short mode")
	}
	const seeds = 20
	restarts, lostTails := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed %d", seed), func(t *testing.T) {
			pc := newPowerCluster(t, 5, transport.Options{
				BaseLatency: 100 * time.Microsecond,
				Jitter:      400 * time.Microsecond,
				LossRate:    0.05,
				Seed:        seed,
			})
			var reps []*Replica
			for _, id := range pc.cfg.Members {
				reps = append(reps, pc.life(id).rep)
			}
			awaitLeader(t, reps...)

			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // chaos injector
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for step := 0; ; step++ {
					select {
					case <-done:
						return
					case <-time.After(15 * time.Millisecond):
					}
					v := pc.cfg.Members[rng.Intn(len(pc.cfg.Members))]
					if step%2 == 0 {
						pc.powerLoss(v)
						continue
					}
					pc.net.Isolate(v)
					select {
					case <-done:
					case <-time.After(15 * time.Millisecond):
					}
					pc.net.Restore(v)
				}
			}()

			const total = 100
			for i := 1; i <= total; i++ {
				id := pc.cfg.Members[i%len(pc.cfg.Members)]
				_ = pc.life(id).rep.Propose(appCmd("chaos", uint64(i))) // best effort; loss is fine
				time.Sleep(2 * time.Millisecond)
			}
			close(done)
			wg.Wait()
			pc.net.HealAll()
			pc.converge()
			restarts += pc.restarts
			lostTails += pc.lostTails
		})
	}
	t.Logf("%d power losses over %d seeds, %d of them lost a tail of dec/ markers", restarts, seeds, lostTails)
	if !t.Failed() && lostTails == 0 {
		t.Errorf("no power loss in %d ever lost a dec/ marker: the schedule does not exercise re-learning by catch-up", restarts)
	}
}
