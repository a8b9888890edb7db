package reconfig

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/paxos"
	"repro/internal/rpc"
	"repro/internal/smr"
	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// Options tunes the composition layer. The zero value is normalized to the
// defaults below. A field is exported only where code outside this package
// chooses its value; the other knobs are unexported, fixed for every program
// and set only by this package's own tests.
type Options struct {
	// Paxos configures the default engine, static Paxos, for every
	// configuration this node runs. Exported because cluster.FastOptions
	// (and through it the benchmark) sets its tick.
	Paxos paxos.Options
	// SpeculativeStart controls whether a successor engine boots while the
	// snapshot is still in flight (the paper's §1 speculative start: the
	// joiner votes, accepts and decides c+1 slots during transfer; decided
	// entries park in the engine run's buffer and drain after install, with client
	// replies gated until the apply point passes the snapshot's base
	// index). SpecDefault normalizes to SpecOn; SpecOff delays the engine
	// until the initial state is installed — the wait-for-transfer
	// ablation; tests pin its client contract and check it linearizable.
	// Exported because the planned reconfig-move benchmark workload
	// (ROADMAP item 1(b)) runs a SpecOff variant beside the default.
	SpeculativeStart SpecMode
	// SubmitQueue bounds how many distinct client commands may be pending
	// (admitted but not yet applied) on this node at once — the admission
	// control bound. A new command that would exceed it is shed with an
	// explicit SubmitBusy{RetryAfter} reply instead of silently joining an
	// unbounded queue. Retries of already-admitted commands only attach a
	// waiter and always pass, and nothing but client submissions is ever
	// shed — reconfigurations, chain/announce exchanges and state transfer
	// use their own op codes and bypass the bound entirely (prioritized
	// admission). Default 4096. Exported because the cluster megaload tests
	// check the shedding contract at fixed bounds of 256 and 512.
	SubmitQueue int
	// NoCheckpoints disables the within-configuration checkpoint producer,
	// log truncation and checkpoint catch-up: a lagging member replays the
	// full log slot by slot — the pre-checkpoint behavior. Exported because
	// the benchmark's durable workloads set it.
	NoCheckpoints bool

	// checkpointInterval is how many applied slots pass between
	// within-configuration checkpoints: once the applied cursor is this far
	// past the newest durable checkpoint base, the housekeeping tick forks
	// and publishes a new one (see checkpoint.go). Bounds retained engine
	// log state to roughly interval + margin slots. Default 4096.
	checkpointInterval int
	// checkpointMargin is how many recent slots stay in the engine log
	// below the quorum-durable checkpoint base, so a briefly lagging member
	// catches up through ordinary slot redelivery instead of a state
	// transfer. Default 512.
	checkpointMargin int
	// catchupGapSlots is the decision gap (engine contiguous decided
	// frontier minus applied cursor, one O(1) Progress read) beyond which a
	// member fetches the newest checkpoint instead of replaying every slot.
	// Default 8192.
	catchupGapSlots int
	// decisionBuffer bounds the per-engine parked-decision buffer (decisions
	// decided before this node's state is ready to apply them). Past the
	// bound the oldest parked decision is dropped and the gap is repaired by
	// checkpoint catch-up rather than unbounded memory growth. Default
	// 16384.
	decisionBuffer int
	// engine builds every configuration's static engine and reads its
	// persisted floor; the node drives engines through smr alone. Default:
	// Paxos built with the Paxos field. Tests set another engine here.
	engine smr.Factory
}

// SpecMode selects the successor engine start policy. The zero value is
// normalized to SpecOn so speculation stays the default through a zero
// Options.
type SpecMode uint8

const (
	// SpecDefault is the zero value; withDefaults turns it into SpecOn.
	SpecDefault SpecMode = 0
	// SpecOn starts a successor engine the moment this node learns it is a
	// member of the new configuration, before its snapshot is installed.
	SpecOn SpecMode = 1
	// SpecOff waits for the snapshot install before starting the engine —
	// the wait-for-transfer ablation.
	SpecOff SpecMode = 2
)

const (
	// retryInterval is the period of the node's housekeeping loop:
	// re-proposing pending commands, retrying snapshot fetches, checking
	// for stale configurations.
	retryInterval = 10 * time.Millisecond
	// lingerOld is how long a wedged engine keeps running after its
	// successor activates, so lagging members can still catch up and
	// learn the wedge from it.
	lingerOld = 500 * time.Millisecond
	// fetchTimeout bounds one snapshot-fetch RPC attempt.
	fetchTimeout = 150 * time.Millisecond
	// staleJumpTicks is how many housekeeping ticks a node waits for its
	// own engine to deliver an already-announced wedge before jumping
	// directly to the successor via state transfer.
	staleJumpTicks = 15
	// gossipTicks is how many housekeeping ticks pass between chain
	// anti-entropy exchanges with a random known peer, the repair path
	// for lost announces.
	gossipTicks = 20
	// pendingMaxRetries drops a pending command after this many re-proposals
	// (an abandoned client).
	pendingMaxRetries = 2000
)

func (o Options) withDefaults() Options {
	if o.SubmitQueue <= 0 {
		o.SubmitQueue = 4096
	}
	if o.checkpointInterval <= 0 {
		o.checkpointInterval = 4096
	}
	if o.checkpointMargin <= 0 {
		o.checkpointMargin = 512
	}
	if o.catchupGapSlots <= 0 {
		o.catchupGapSlots = 8192
	}
	if o.decisionBuffer <= 0 {
		o.decisionBuffer = 16384
	}
	if o.SpeculativeStart == SpecDefault {
		o.SpeculativeStart = SpecOn
	}
	if o.engine == nil {
		o.engine = paxos.Factory(o.Paxos)
	}
	return o
}

// NodeConfig wires a Node to its substrate.
type NodeConfig struct {
	Self     types.NodeID
	Endpoint *transport.Endpoint
	Store    storage.Store
	Factory  statemachine.Factory
	Opts     Options
}

// Errors returned by Node operations.
var (
	// ErrNotServing means this node is not an initialized member of the
	// current configuration; consult another node.
	ErrNotServing = errors.New("reconfig: node is not serving the current configuration")
	// ErrConflict means a concurrent reconfiguration won; the caller's
	// proposal was not adopted.
	ErrConflict = errors.New("reconfig: a concurrent reconfiguration was chosen instead")
	// ErrBusy means the node shed the command under admission control
	// (submit queue full); back off and retry, here or at another member.
	ErrBusy = errors.New("reconfig: submit queue full")
	// ErrStopped is returned after Stop.
	ErrStopped = errors.New("reconfig: node stopped")
	// ErrNotBootstrapped means Start found no initial configuration.
	ErrNotBootstrapped = errors.New("reconfig: store holds no initial configuration (call Bootstrap)")
)

type pendKey struct {
	client types.NodeID
	seq    uint64
}

type pendingCmd struct {
	cmd        types.Command
	responders []func(resp []byte)
	tries      int
	// Exponential re-proposal backoff: skip housekeeping re-proposals
	// until tick nextRetry; backoff is the current exponent. Reset on
	// configuration transitions so a fresh engine is tried immediately.
	nextRetry int64
	backoff   uint8
}

type engineRun struct {
	id       types.ConfigID
	cfg      types.Config
	eng      smr.Replica
	buffered []smr.Decision // decisions held until this config activates
	// droppedBelow is the highest parked decision slot the bounded buffer
	// dropped (Options.decisionBuffer): slots at or below it can no longer
	// come from this buffer, so a cursor gap under the marker means "wait
	// for checkpoint catch-up", not an engine-contract violation.
	droppedBelow types.Slot
	done         chan struct{} // consumer goroutine exit
}

// NodeStats is a snapshot of the node's counters.
type NodeStats struct {
	Applied              int64 // commands applied to the machine (incl. dups)
	Duplicates           int64 // commands recognized as duplicates
	Wedges               int64 // reconfigurations executed through own log
	StaleJumps           int64 // transitions adopted via announce + transfer
	SnapshotsServed      int64 // snapshot manifests served to joiners
	SnapshotsFetched     int64 // snapshots installed as this node's initial state (fetched, or recovered from its own store at Start)
	ChunksServed         int64 // snapshot chunks served to joiners
	ChunksFetched        int64 // snapshot chunks fetched and CRC-verified
	ChunkRetries         int64 // fruitless transfer rounds (waited out with backoff)
	ChunkCRCRejected     int64 // fetched chunks discarded on CRC mismatch
	Resubmits            int64 // pending command re-proposals
	InvariantViolations  int64
	FastReads            int64 // reads served via the fast path (no log append)
	ReadFallbacks        int64 // fast-path reads that fell back to the log
	ReadFenced           int64 // fast-path reads refused by wedge fencing
	DroppedInbound       int64 // engine inbox overflows, summed over engines
	ApplyQueueHighWater  int64 // max observed count of decisions parked and not yet applied, summed over engines
	ApplyStalls          int64 // always 0: nothing between an engine and the apply stage waits; it stays only because the benchmark module (bench/) reads it
	GroupCommits         int64 // engine bursts ending in a group-commit Sync, summed
	SpeculativeDecides   int64 // decisions learned for a configuration before its snapshot installed
	SpeculativeParked    int64 // decisions already parked for the new config when its snapshot installed
	ShedSubmits          int64 // client commands shed with SubmitBusy (admission control)
	SubmitQueueDepth     int64 // distinct client commands pending right now
	SubmitQueueHigh      int64 // max observed pending-command count
	CheckpointsPublished int64 // within-configuration checkpoints made durable
	CheckpointBase       int64 // newest durable checkpoint base of the current config
	TruncatedSlots       int64 // engine log slots released below checkpoint floors, summed
	RetainedSlots        int64 // decided slots currently held by the engines, summed
	CatchupFetches       int64 // checkpoints fetched and installed to close a decision gap
	DecisionBufferHigh   int64 // max observed parked-decision buffer length, any engine
	DecisionBufferDrops  int64 // parked decisions dropped by the bounded buffer
}

// Node is one process's reconfigurable-SMR runtime: it hosts the static
// engines of the configurations this node belongs to, applies the global
// command sequence to the local state machine, executes reconfigurations and
// serves the control plane (client submits, discovery, state transfer).
type Node struct {
	self    types.NodeID
	ep      *transport.Endpoint
	store   storage.Stager
	factory statemachine.Factory
	opts    Options
	peer    *rpc.Peer

	// snapMu serializes the whole-blob writers of the rc/snap/ namespace
	// (commit and retire). Lock order: snapMu before mu.
	snapMu sync.Mutex
	mu     sync.Mutex
	// execMu guards the machine's *content* during command execution. The
	// apply stage takes it exclusively — without mu — while it executes a
	// decided segment, so proposals and housekeeping proceed under mu
	// meanwhile; paths that read machine state under mu (submit dedup,
	// fast-path reads) additionally take it shared so they never observe a
	// half-applied segment. Lock order: mu before execMu; the apply stage
	// never acquires mu while holding execMu.
	execMu      sync.RWMutex
	machine     *statemachine.Sessioned
	initConfig  types.Config
	configs     map[types.ConfigID]types.Config
	chain       map[types.ConfigID]ChainRecord
	curID       types.ConfigID
	initialized bool // machine state is valid for curID; applying allowed
	appliedSlot types.Slot
	// epoch counts configuration transitions and snapshot installs. The
	// apply stage records it before releasing mu to execute a segment and
	// re-checks it before committing the results: a changed epoch means the
	// machine it mutated was abandoned (replaced by a snapshot install or a
	// configuration jump), so the results are discarded — re-submission
	// plus session dedup re-derives them.
	epoch       int64
	engines     map[types.ConfigID]*engineRun
	pending     map[pendKey]*pendingCmd
	readWaiters []*readWaiter   // fast-path reads awaiting their index
	cfgWaiters  []chan struct{} // signaled (closed) on every transition
	// Snapshot pipeline state (xfer.go), guarded by mu.
	serving    map[types.ConfigID]*snapServing // snapshots held in memory while commit writes them
	publishing int                             // publish goroutines in flight
	transfer   types.ConfigID                  // configuration the transfer goroutine is fetching; 0 when none runs
	retireNext types.ConfigID                  // every older configuration's snapshot has been retired
	tick       int64                           // housekeeping tick counter
	rng        *rand.Rand                      // jitter source, guarded by mu
	staleTicks int
	gossipLeft int
	gossipSeq  int
	stopped    bool

	// Within-configuration checkpoint state (checkpoint.go), guarded by mu.
	// ckptCfg names the configuration the bases below belong to; a
	// transition resets them (ckptTrackLocked).
	ckptCfg          types.ConfigID
	ckptSelfBase     types.Slot                  // newest locally durable checkpoint base
	ckptPeerBase     map[types.NodeID]types.Slot // newest base each peer announced/acked
	ckptAnnounceLeft int                         // ticks until the next periodic re-announce

	// testChunkHook, when set by a test (same package), intercepts every
	// chunk this node serves: returning modified bytes simulates wire
	// corruption. Guarded by mu.
	testChunkHook func(id types.ConfigID, idx int, data []byte) []byte

	// pumpCh nudges the apply loop to re-run its pump: an engine's consumer
	// has parked decisions, or a snapshot install unblocked parked ones.
	// Capacity 1; sends are non-blocking (kickApply).
	pumpCh     chan struct{}
	stopCh     chan struct{}
	stopOnce   sync.Once
	wg         sync.WaitGroup
	baseCtx    context.Context
	baseCancel context.CancelFunc

	lastShedWarn atomic.Int64

	// stats holds the counters the node keeps itself, incremented in place
	// under mu; Stats fills in the fields computed when it is called.
	stats NodeStats
}

// NewNode constructs a Node. Call Bootstrap (first boot of an initial
// member) and then Start.
func NewNode(nc NodeConfig) (*Node, error) {
	if nc.Self == "" || nc.Endpoint == nil || nc.Store == nil || nc.Factory == nil {
		return nil, fmt.Errorf("reconfig: incomplete NodeConfig")
	}
	ctx, cancel := context.WithCancel(context.Background())
	opts := nc.Opts.withDefaults()
	n := &Node{
		self:       nc.Self,
		ep:         nc.Endpoint,
		store:      storage.Staged(nc.Store),
		factory:    nc.Factory,
		opts:       opts,
		configs:    make(map[types.ConfigID]types.Config),
		chain:      make(map[types.ConfigID]ChainRecord),
		engines:    make(map[types.ConfigID]*engineRun),
		pending:    make(map[pendKey]*pendingCmd),
		serving:    make(map[types.ConfigID]*snapServing),
		retireNext: 1, // configuration IDs start at 1; 0 is "no transfer running"
		rng:        rand.New(rand.NewSource(types.SeedFor(string(nc.Self)))),
		pumpCh:     make(chan struct{}, 1),
		stopCh:     make(chan struct{}),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	return n, nil
}

// Bootstrap stages the initial configuration and the empty initial
// snapshot. Every member of the initial configuration must call it before its
// first Start; it is idempotent for the same configuration.
//
// It waits on no barrier. The snapshot is staged first and the rc/init record
// last, so rc/init is the commit point (staged operations keep their
// order, storage.Stager), and both become durable at the node's first
// barrier: for a member, the start-of-loop Sync of the engine Start launches,
// which comes before that engine's first promise, vote or decision and before
// any submit or read reaches it. A power loss before that barrier leaves the
// store as if Bootstrap never ran: the node restarts as an idle spare, having
// voted on nothing, and running Bootstrap again — configuration 1 is the
// operator's input — recovers it.
func (n *Node) Bootstrap(initial types.Config) error {
	if _, err := types.NewConfig(initial.ID, initial.Members); err != nil {
		return err
	}
	if initial.ID != 1 {
		return fmt.Errorf("%w: initial configuration must have ID 1, got %d", types.ErrBadConfig, initial.ID)
	}
	if raw, ok, err := n.store.Get("rc/init"); err != nil {
		return err
	} else if ok {
		prev, err := types.DecodeConfig(raw)
		if err != nil {
			return fmt.Errorf("existing init record: %w", err)
		}
		if !prev.Equal(initial) {
			return fmt.Errorf("%w: store already bootstrapped with %s", types.ErrBadConfig, prev)
		}
		return nil
	}
	if err := n.publish(initial.ID, 0, statemachine.NewSessioned(n.factory()).ForkSnapshot(), false); err != nil {
		return err
	}
	return n.store.SetBuffered("rc/init", types.EncodeConfig(initial))
}

func chainKey(id types.ConfigID) string {
	return fmt.Sprintf("rc/chain/%020d", uint64(id))
}

// Start recovers persistent state and launches the node's loops.
func (n *Node) Start() error {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return ErrStopped
	}
	err := n.recoverChainLocked()
	n.machine = statemachine.NewSessioned(n.factory())
	cur := n.curID
	n.mu.Unlock()
	if err != nil {
		return err
	}

	// Recover the machine from the current configuration's newest snapshot
	// (the initial one, or the latest within-configuration checkpoint that
	// replaced it) through the same install a fetched snapshot takes; the
	// engine's redelivered log replays the rest. No snapshot, a partial chunk
	// set (crashed mid-transfer) or one that does not decode leaves the node
	// uninitialized, and the transfer goroutine fetches what is missing.
	if m, chunks, complete, err := storage.ReadChunked(n.store, snapPrefix(cur)); err != nil {
		// A corrupt manifest must not brick the node. If this is the
		// bootstrap configuration and the engine log is intact from slot 1
		// (no truncation recorded), the empty machine plus full log replay
		// reproduces the state — the bootstrap snapshot is empty anyway.
		// Otherwise replay cannot start at 1: stay uninitialized and
		// refetch the newest checkpoint from peers.
		log.Printf("reconfig: %s snapshot of cfg %d unreadable (%v); falling back", n.self, cur, err)
		floor, ferr := n.opts.engine.Floor(n.store, uint64(cur))
		n.mu.Lock()
		n.initialized = ferr == nil && floor == 0 && n.initConfig.ID != 0 && cur == n.initConfig.ID
		n.mu.Unlock()
	} else if complete && m.Chunks() > 0 {
		// A snapshot below the engine's truncation floor (a crash between a
		// catch-up install's SkipTo and its commit) is no snapshot: the log
		// between its base and the floor is gone.
		// A checkpoint's base is announced once installed, so whatever an
		// earlier run staged of it is made durable first; a base-0 snapshot
		// announces nothing, and a boot waits on no disk for it.
		if floor, _ := n.opts.engine.Floor(n.store, uint64(cur)); m.Base >= floor && (m.Base == 0 || n.store.Sync() == nil) {
			n.install(cur, m, chunks)
		}
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	// Start the engine even when the snapshot is not yet installed: the
	// engine needs no application state to vote, accept or decide
	// (speculative start); its accepted/decided records are durable in
	// their own right, so slots decided before a crash mid-transfer are
	// redelivered here and park until the install.
	if n.configs[cur].IsMember(n.self) && (n.initialized || n.speculationOn()) {
		if err := n.ensureEngineLocked(cur); err != nil {
			return err
		}
	}

	n.peer = rpc.NewPeer(n.ep, ControlStream, n.handleRPC)
	n.wg.Add(2)
	go n.applyLoop()
	go n.housekeeping()
	return nil
}

// recoverChainLocked loads the initial configuration and the configuration
// chain from the store. Caller holds mu.
func (n *Node) recoverChainLocked() error {
	// A node may start with an empty store: it is a spare, idle until an
	// announce makes it a member of some configuration.
	raw, ok, err := n.store.Get("rc/init")
	if err != nil {
		return err
	}
	if ok {
		init, err := types.DecodeConfig(raw)
		if err != nil {
			return fmt.Errorf("init record: %w", err)
		}
		n.initConfig = init
		n.configs[init.ID] = init
		n.curID = init.ID
	}

	// The newest known configuration is the largest successor on the chain
	// (the chain is a path).
	kvs, err := n.store.Scan("rc/chain/")
	if err != nil {
		return err
	}
	for _, kv := range kvs {
		rec, err := decodeChainRecord(kv.Value)
		if err != nil {
			return fmt.Errorf("chain record %s: %w", kv.Key, err)
		}
		n.chain[rec.From] = rec
		n.configs[rec.To.ID] = rec.To
		if rec.To.ID > n.curID {
			n.curID = rec.To.ID
		}
	}
	return nil
}

// Stop terminates the node: engines, loops and the control plane. Idempotent.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	engines := make([]*engineRun, 0, len(n.engines))
	for _, run := range n.engines {
		engines = append(engines, run)
	}
	peer := n.peer
	n.mu.Unlock()

	n.stopOnce.Do(func() { close(n.stopCh) })
	n.baseCancel()
	for _, run := range engines {
		run.eng.Stop()
		<-run.done
	}
	n.wg.Wait()
	if peer != nil {
		peer.Close()
	}
}

// speculationOn reports whether successor engines may start before their
// snapshot installs (Options.SpeculativeStart, default on).
func (n *Node) speculationOn() bool { return n.opts.SpeculativeStart != SpecOff }

// ensureEngineLocked creates and starts the engine for configuration id if
// this node is a member and it is not already running. Caller holds mu.
func (n *Node) ensureEngineLocked(id types.ConfigID) error {
	if n.stopped {
		return nil // shutting down; a new engine would never be reaped
	}
	if _, ok := n.engines[id]; ok {
		return nil
	}
	cfg, ok := n.configs[id]
	if !ok {
		return fmt.Errorf("reconfig: unknown configuration %d", id)
	}
	if !cfg.IsMember(n.self) {
		return nil
	}
	eng, err := n.opts.engine.New(cfg, n.self, n.ep, n.store, uint64(id))
	if err != nil {
		return err
	}
	run := &engineRun{id: id, cfg: cfg, eng: eng, done: make(chan struct{})}
	if err := eng.Start(); err != nil {
		return err
	}
	n.engines[id] = run
	n.wg.Add(1)
	go n.consumeEngine(run)
	return nil
}

// consumeEngine parks one engine's decisions for the apply stage: each one it
// receives, with whatever else the channel already holds, is routed under mu
// (routeDecisionLocked), and the apply loop is kicked. It never waits on the
// apply stage; a decision stays parked in its engine's buffer until applied.
func (n *Node) consumeEngine(run *engineRun) {
	defer n.wg.Done()
	defer close(run.done)
	decs := run.eng.Decisions()
	for d := range decs {
		n.mu.Lock()
		n.routeDecisionLocked(run.id, d)
		// This goroutine is the channel's only receiver, so what the channel
		// holds now is there to take without waiting, closed or not.
		for range len(decs) {
			n.routeDecisionLocked(run.id, <-decs)
		}
		var parked int64 // decisions parked and not yet applied, summed over engines
		for _, r := range n.engines {
			parked += int64(len(r.buffered))
		}
		n.stats.ApplyQueueHighWater = max(n.stats.ApplyQueueHighWater, parked)
		n.mu.Unlock()
		n.kickApply()
	}
}

// kickApply wakes the apply loop without waiting; a kick already pending
// covers this one.
func (n *Node) kickApply() {
	select {
	case n.pumpCh <- struct{}{}:
	default:
	}
}

// warnShed logs at most once per second that admission control is shedding
// client commands. Caller holds mu (the shed counter lives under it); the
// rate gate is atomic so the common suppressed path stays cheap.
func (n *Node) warnShed() {
	now := time.Now().UnixNano()
	last := n.lastShedWarn.Load()
	if now-last < int64(time.Second) {
		return
	}
	if n.lastShedWarn.CompareAndSwap(last, now) {
		log.Printf("reconfig: %s shedding client submits (queue cap %d, %d shed so far); clients are told SubmitBusy",
			n.self, n.opts.SubmitQueue, n.stats.ShedSubmits)
	}
}

// scheduleEngineStop stops an old engine after the linger period, keeping it
// available for laggards' catch-up meanwhile.
func (n *Node) scheduleEngineStop(run *engineRun) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		select {
		case <-time.After(lingerOld):
		case <-n.stopCh:
		}
		run.eng.Stop()
	}()
}

// --- public inspection -------------------------------------------------------

// Self returns this node's ID.
func (n *Node) Self() types.NodeID { return n.self }

// CurrentConfig returns the latest configuration this node knows.
func (n *Node) CurrentConfig() types.Config {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.configs[n.curID].Clone()
}

// Serving reports whether this node is an initialized member of the current
// configuration (i.e. can execute client commands).
func (n *Node) Serving() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.initialized && n.configs[n.curID].IsMember(n.self)
}

// Accepting reports whether this node can take client submissions: serving,
// or an uninitialized member of the current configuration whose speculative
// engine can already order commands (the reply stays parked until the
// snapshot installs). Smart clients use this during a full member
// replacement, when no successor member is serving yet but all of them can
// decide.
func (n *Node) Accepting() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped || !n.configs[n.curID].IsMember(n.self) {
		return false
	}
	return n.initialized || n.speculationOn()
}

// LeaderHint returns this node's best guess at the current configuration's
// leader ("" when unknown). Used for leader-targeted fault injection and
// client steering; it is a hint, not a guarantee.
func (n *Node) LeaderHint() types.NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaderHintLocked()
}

// AppliedSlot returns the last applied slot within the current configuration.
func (n *Node) AppliedSlot() (types.ConfigID, types.Slot) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.curID, n.appliedSlot
}

// ChainRecords returns the known chain records ordered by From.
func (n *Node) ChainRecords() []ChainRecord {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]ChainRecord, 0, len(n.chain))
	start := types.ConfigID(0)
	for from := range n.chain {
		if start == 0 || from < start {
			start = from
		}
	}
	for id := start; id != 0; {
		rec, ok := n.chain[id]
		if !ok {
			break
		}
		out = append(out, rec)
		id = rec.To.ID
	}
	return out
}

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() NodeStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.stats
	for _, run := range n.engines {
		es := run.eng.Counters()
		out.DroppedInbound += es.DroppedInbound
		out.GroupCommits += es.GroupCommits
		out.TruncatedSlots += es.TruncatedSlots
		out.RetainedSlots += es.RetainedSlots
	}
	out.SubmitQueueDepth = int64(len(n.pending))
	if n.ckptCfg == n.curID {
		out.CheckpointBase = int64(n.ckptSelfBase)
	}
	return out
}

// Machine returns the node's sessioned machine for test inspection. Callers
// must not mutate it concurrently with a running node.
func (n *Node) Machine() *statemachine.Sessioned {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.machine
}

// notifyTransitionLocked wakes everyone waiting for a configuration change
// and advances the epoch that invalidates in-flight off-mutex apply work.
func (n *Node) notifyTransitionLocked() {
	n.epoch++
	for _, ch := range n.cfgWaiters {
		close(ch)
	}
	n.cfgWaiters = nil
	n.staleTicks = 0
}

// transitionWaiterLocked returns a channel closed at the next transition.
func (n *Node) transitionWaiterLocked() chan struct{} {
	ch := make(chan struct{})
	n.cfgWaiters = append(n.cfgWaiters, ch)
	return ch
}
