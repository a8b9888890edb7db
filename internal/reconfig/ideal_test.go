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
// share one in-memory log, which outlives a member's restart; each member
// keeps only its truncation floor, in its own store. A seeded adversary
// drops and duplicates proposals, lags each member's delivery, holds a wedge
// slot back from chosen members (the decided-after-wedge race of PAPER.md,
// step 4), refuses some fast reads, and cuts the shared log at any member's
// truncation floor, which leaves a member lagging below it needing a
// checkpoint. With no elections, no messages and no disk, a composed suite
// that fails over this engine has found a composition bug.
type idealEngines struct {
	mu   sync.Mutex
	seed int64
	logs map[uint64]*idealLog
	// held counts wedge slots held back from a member, cutOff the times a
	// member found its next slot cut from the shared log.
	held, cutOff atomic.Int64
}

func newIdealEngines(seed int64) *idealEngines {
	return &idealEngines{seed: seed, logs: make(map[uint64]*idealLog)}
}

// idealLog is one configuration's agreed sequence: cmds[i] is slot i+1, and
// slots <= cut are gone.
type idealLog struct {
	mu   sync.Mutex
	rng  *rand.Rand
	cmds []types.Command
	cut  types.Slot
}

func idealFloorKey(stream uint64) string { return fmt.Sprintf("ideal/%d/floor", stream) }

func (f *idealEngines) Floor(store storage.Store, stream uint64) (types.Slot, error) {
	raw, ok, err := store.Get(idealFloorKey(stream))
	if err != nil || !ok {
		return 0, err
	}
	rd := types.NewReader(raw)
	floor := types.Slot(rd.Uvarint())
	return floor, rd.Err()
}

func (f *idealEngines) New(cfg types.Config, self types.NodeID, _ *transport.Endpoint, store storage.Store, stream uint64) (smr.Replica, error) {
	if !cfg.IsMember(self) {
		return nil, smr.ErrNotMember
	}
	floor, err := f.Floor(store, stream)
	if err != nil {
		return nil, err
	}
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
	r := &idealReplica{f: f, log: lg, cfg: cfg, self: self, store: storage.Staged(store), key: idealFloorKey(stream),
		rng: rand.New(rand.NewSource(seed)), decCh: make(chan smr.Decision, 256), stopCh: make(chan struct{}), done: make(chan struct{})}
	r.next.Store(int64(floor) + 1)
	r.floor.Store(int64(floor))
	return r, nil
}

// idealReplica is one member's view of an idealLog.
type idealReplica struct {
	f        *idealEngines
	log      *idealLog
	cfg      types.Config
	self     types.NodeID
	store    storage.Stager
	key      string
	rng      *rand.Rand // the adversary, owned by the loop
	decCh    chan smr.Decision
	stopCh   chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	started  atomic.Bool

	skipReq, truncReq      atomic.Int64 // latest-wins requests, as in static Paxos
	next, floor, truncated atomic.Int64 // next slot to deliver; own floor; slots released
	ckptNeeded             atomic.Bool
	heldSlot, releaseAt    types.Slot // a wedge held back until the log reaches releaseAt
	pauseTicks             int        // ticks left in a delivery pause
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

func (r *idealReplica) TruncateBelow(floor types.Slot) { raise(&r.truncReq, floor) }
func (r *idealReplica) SkipTo(base types.Slot)         { raise(&r.skipReq, base) }

func raise(cell *atomic.Int64, slot types.Slot) {
	for cur := cell.Load(); int64(slot) > cur && !cell.CompareAndSwap(cur, int64(slot)); cur = cell.Load() {
	}
}

func (r *idealReplica) Progress() smr.Progress {
	r.log.mu.Lock()
	seen := types.Slot(len(r.log.cmds))
	r.log.mu.Unlock()
	return smr.Progress{Delivered: types.Slot(r.next.Load() - 1), MaxDecidedSeen: seen,
		TruncatedBelow: types.Slot(r.floor.Load()), CheckpointNeeded: r.ckptNeeded.Load()}
}

func (r *idealReplica) Counters() smr.Counters {
	return smr.Counters{TruncatedSlots: r.truncated.Load(), RetainedSlots: r.next.Load() - 1 - r.floor.Load()}
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
		if base := types.Slot(r.skipReq.Swap(0)); base > 0 {
			if base >= types.Slot(r.next.Load()) {
				r.next.Store(int64(base) + 1)
				r.release(base)
			}
			r.ckptNeeded.Store(false)
		}
		if floor := min(types.Slot(r.truncReq.Swap(0)), types.Slot(r.next.Load()-1)); floor > types.Slot(r.floor.Load()) {
			r.release(floor)
			r.log.mu.Lock()
			r.log.cut = max(r.log.cut, floor)
			r.log.mu.Unlock()
		}
		if r.pauseTicks > 0 {
			r.pauseTicks--
		} else if r.rng.Intn(500) == 0 {
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
		cut, size := r.log.cut, types.Slot(len(r.log.cmds))
		var cmd types.Command
		if slot <= size {
			cmd = r.log.cmds[slot-1]
		}
		r.log.mu.Unlock()
		if slot <= cut {
			if !r.ckptNeeded.Swap(true) {
				r.f.cutOff.Add(1)
			}
			return
		}
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

// release raises the member's floor to floor, staged in its own store.
func (r *idealReplica) release(floor types.Slot) {
	r.truncated.Add(int64(floor) - r.floor.Swap(int64(floor)))
	w := types.NewWriter(8)
	w.Uvarint(uint64(floor))
	// Staging on the test's mem stores does not fail; a floor lost anyway
	// would restart delivery lower, where the shared log's cut still holds.
	_ = r.store.SetBuffered(r.key, w.Bytes())
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
