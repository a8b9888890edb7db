package reconfig

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/smr"
	"repro/internal/smr/smrtest"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// idealEngines is the static building block as the paper's arXiv full version
// reasons about it: an ideal SMR box per configuration, one agreed sequence
// delivered to each member at its own pace. The members of a configuration
// share one in-memory log, which outlives a member's restart and which a
// restarted member redelivers from slot 1; each member keeps only a marker
// that it ran, in its own store, which Discard removes. A seeded adversary
// drops and duplicates proposals, lags each member's delivery, holds a wedge
// slot back from chosen members (the decided-after-wedge race of PAPER.md,
// step 4), and refuses some fast reads. With no elections, no messages and no
// disk, a composed suite that fails over this engine has found a composition
// bug.
type idealEngines struct {
	mu   sync.Mutex
	seed int64
	logs map[uint64]*idealLog
	// held counts wedge slots held back from a member.
	held atomic.Int64
}

func newIdealEngines(seed int64) *idealEngines {
	return &idealEngines{seed: seed, logs: make(map[uint64]*idealLog)}
}

// idealLog is one configuration's agreed sequence: cmds[i] is slot i+1.
type idealLog struct {
	mu   sync.Mutex
	rng  *rand.Rand
	cmds []types.Command
}

func idealPrefix(stream uint64) string { return fmt.Sprintf("ideal/%d/", stream) }

// Discard removes what New's replicas of stream staged in store.
func (f *idealEngines) Discard(store storage.Stager, stream uint64) error {
	kvs, err := store.Scan(idealPrefix(stream))
	if err != nil {
		return err
	}
	for _, kv := range kvs {
		if err := store.DeleteBuffered(kv.Key); err != nil {
			return err
		}
	}
	return nil
}

func (f *idealEngines) New(cfg types.Config, self types.NodeID, _ *transport.Endpoint, store storage.Store, stream uint64) (smr.Replica, error) {
	if !cfg.IsMember(self) {
		return nil, smr.ErrNotMember
	}
	// Staging on the test's stores does not fail.
	_ = storage.Staged(store).SetBuffered(idealPrefix(stream)+"ran", []byte{1})
	seed := f.seed ^ int64(stream) ^ types.SeedFor(string(self))
	f.mu.Lock()
	lg := f.logs[stream]
	if lg == nil {
		lg = &idealLog{rng: rand.New(rand.NewSource(f.seed ^ int64(stream)))}
		f.logs[stream] = lg
	}
	f.mu.Unlock()
	// decCh holds several turns' deliveries (up to 47 each), so a consumer
	// that is slow for a moment does not idle delivery.
	r := &idealReplica{f: f, log: lg, cfg: cfg, self: self,
		rng: rand.New(rand.NewSource(seed)), decCh: make(chan smr.Decision, 256), stopCh: make(chan struct{}), done: make(chan struct{})}
	r.next.Store(1)
	return r, nil
}

// idealReplica is one member's view of an idealLog.
type idealReplica struct {
	f        *idealEngines
	log      *idealLog
	cfg      types.Config
	self     types.NodeID
	rng      *rand.Rand // the adversary, owned by the loop
	decCh    chan smr.Decision
	stopCh   chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	started  atomic.Bool

	next                atomic.Int64 // next slot to deliver
	heldSlot, releaseAt types.Slot   // a wedge held back until the log reaches releaseAt
	pauseTicks          int          // ticks left in a delivery pause
}

func (r *idealReplica) Start() error {
	if r.started.Swap(true) {
		return fmt.Errorf("ideal: Start called twice")
	}
	go r.loop()
	return nil
}

func (r *idealReplica) Stop() {
	r.stopOnce.Do(func() { close(r.stopCh) })
	if r.started.Load() {
		<-r.done
	}
}

func (r *idealReplica) stopped() bool {
	select {
	case <-r.stopCh:
		return true
	default:
		return false
	}
}

func (r *idealReplica) Propose(cmd types.Command) error {
	if r.stopped() {
		return smr.ErrStopped
	}
	r.log.mu.Lock()
	defer r.log.mu.Unlock()
	switch r.log.rng.Intn(20) {
	case 0: // lost
	case 1:
		r.log.cmds = append(r.log.cmds, cmd, cmd)
	default:
		r.log.cmds = append(r.log.cmds, cmd)
	}
	return nil
}

func (r *idealReplica) Decisions() <-chan smr.Decision { return r.decCh }

func (r *idealReplica) Leader() (types.NodeID, bool) {
	return r.cfg.Members[0], r.self == r.cfg.Members[0]
}

// ReadIndex answers at once with the log's length: every command chosen
// before the call lies at or below it. One read in eight is refused.
func (r *idealReplica) ReadIndex(done func(types.Slot, error)) error {
	if r.stopped() {
		return smr.ErrStopped
	}
	r.log.mu.Lock()
	index, refuse := types.Slot(len(r.log.cmds)), r.log.rng.Intn(8) == 0
	r.log.mu.Unlock()
	if refuse {
		done(0, smr.ErrNotLeader)
	} else {
		done(index, nil)
	}
	return nil
}

func (r *idealReplica) Progress() smr.Progress {
	return smr.Progress{Delivered: types.Slot(r.next.Load() - 1)}
}

func (r *idealReplica) Counters() smr.Counters {
	return smr.Counters{RetainedSlots: r.next.Load() - 1}
}

func (r *idealReplica) loop() {
	defer close(r.done)
	defer close(r.decCh)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-r.stopCh:
			return
		case <-tick.C:
		}
		// A pause of 20–220 ms starts one tick in 2 500, so a member lags
		// about one twentieth of the time. A client waits out the pause of
		// the member it submits to, so pausing members much more often
		// starves a short cell's clients of ops, and a log-bound cell of its
		// wedges at the bound.
		if r.pauseTicks > 0 {
			r.pauseTicks--
		} else if r.rng.Intn(2500) == 0 {
			r.pauseTicks = 20 + r.rng.Intn(200)
		} else {
			r.deliver(r.rng.Intn(48))
		}
	}
}

// deliver hands up to budget slots to the consumer, as many as the channel
// takes.
func (r *idealReplica) deliver(budget int) {
	for ; budget > 0; budget-- {
		slot := types.Slot(r.next.Load())
		r.log.mu.Lock()
		size := types.Slot(len(r.log.cmds))
		var cmd types.Command
		if slot <= size {
			cmd = r.log.cmds[slot-1]
		}
		r.log.mu.Unlock()
		if slot > size {
			return
		}
		if cmd.Kind == types.CmdReconfig && r.self != r.cfg.Members[0] {
			if r.heldSlot != slot {
				r.heldSlot, r.releaseAt = slot, slot
				if r.rng.Intn(3) == 0 {
					r.releaseAt += types.Slot(100 + r.rng.Intn(400))
					r.f.held.Add(1)
				}
			}
			if size < r.releaseAt {
				return
			}
		}
		select {
		case r.decCh <- smr.Decision{Slot: slot, Cmd: cmd}:
			r.next.Add(1)
		default:
			return
		}
	}
}

// TestIdealEngineConformance holds the ideal engine to the contract every
// engine meets.
func TestIdealEngineConformance(t *testing.T) {
	smrtest.Run(t, func(t *testing.T, members []types.NodeID) smrtest.Cluster {
		net, f := transport.NewNetwork(transport.Options{}), newIdealEngines(1)
		engines := make(map[types.NodeID]smr.Replica, len(members))
		for _, id := range members {
			eng, err := f.New(types.MustConfig(1, members...), id, net.Endpoint(id), storage.NewMem(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Start(); err != nil {
				t.Fatal(err)
			}
			engines[id] = eng
		}
		return smrtest.Cluster{Engines: engines, Network: net, Cleanup: func() {
			for _, e := range engines {
				e.Stop()
			}
			net.Close()
		}}
	})
}
