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

	"repro/internal/fifo"
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
	// entries stay in the engine until the install, then the apply loop
	// takes them, with client replies gated until the apply point passes the
	// snapshot's base index). SpecDefault normalizes to SpecOn; SpecOff
	// delays the engine until the initial state is installed — the
	// wait-for-transfer ablation; tests pin its client contract and check it
	// linearizable.
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
	// NoCheckpoints turns the log bound off: a configuration's log grows
	// until a reconfiguration wedges it. Every member of a deployment must
	// agree on it. Exported only because the benchmark's durable workload
	// sets it (ROADMAP item 1(c) deletes it).
	NoCheckpoints bool

	// logBound is the last slot of every configuration's log: once the apply
	// cursor reaches it and no decided reconfiguration has wedged the
	// configuration first, every member wedges it there, after the slot's
	// whole batch, with successor ID+1 and the same members (wedgeAtBound).
	// Every member must run with the same bound. Default 4096.
	logBound int
	// engine builds every configuration's static engine and discards what a
	// retired one persisted; the node drives engines through smr alone.
	// Default: Paxos built with the Paxos field. Tests set another engine
	// here.
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
	// retryInterval is the period of the apply loop's tick (houseTick):
	// re-proposing pending commands, retrying snapshot fetches, checking
	// for stale configurations, retiring old engines.
	retryInterval = 10 * time.Millisecond
	// lingerOld is how long an old configuration's engine keeps running
	// once the node has moved past it, so members a few slots behind can
	// still learn the last decisions and the wedge from it; one further
	// behind makes the stale jump. The tick counts it out in ticks. Every run
	// holds its whole log until it goes, and a bound wedge comes every
	// logBound slots, so the linger is kept short.
	lingerOld = 100 * time.Millisecond
	// fetchTimeout bounds one snapshot-fetch RPC attempt.
	fetchTimeout = 150 * time.Millisecond
	// staleJumpTicks is how many ticks a node waits for its own engine to
	// deliver an already-announced wedge before jumping directly to the
	// successor via state transfer.
	staleJumpTicks = 15
	// gossipTicks is how many ticks pass between chain anti-entropy
	// exchanges with a random known peer, the repair path for lost
	// announces.
	gossipTicks = 20
	// pendingMaxRetries drops a pending command after this many re-proposals
	// (an abandoned client).
	pendingMaxRetries = 2000
)

func (o Options) withDefaults() Options {
	if o.SubmitQueue <= 0 {
		o.SubmitQueue = 4096
	}
	if o.logBound <= 0 {
		o.logBound = 4096
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
	// Exponential re-proposal backoff: skip the tick's re-proposals
	// until tick nextRetry; backoff is the current exponent. Reset on
	// configuration transitions so a fresh engine is tried immediately.
	nextRetry int64
	backoff   uint8
}

type engineRun struct {
	id  types.ConfigID
	cfg types.Config
	eng smr.Replica
	// buffered is the head of decisions the apply loop has taken from the
	// engine and not yet applied; only the loop touches it.
	buffered []smr.Decision
	// installed is set once this configuration's state is installed here
	// and the apply loop takes its decisions (takeOverLocked); until then
	// they stay in the engine.
	installed bool
	// lingered counts the ticks the run has spent older than the current
	// configuration; at lingerOld the tick retires it (retireEnginesLocked).
	lingered int
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
	ApplyQueueHighWater  int64 // max observed count of decisions decided and not yet applied: the apply loop's head plus what speculative successors' engines delivered
	ApplyStalls          int64 // always 0: nothing between an engine and the apply stage waits; it stays only because the benchmark module (bench/) reads it
	GroupCommits         int64 // engine bursts ending in a group-commit Sync, summed
	SpeculativeDecides   int64 // decisions an engine delivered before its configuration's state was installed here
	SpeculativeParked    int64 // decisions the engine already held when a joiner's snapshot installed
	ShedSubmits          int64 // client commands shed with SubmitBusy (admission control)
	SubmitQueueDepth     int64 // distinct client commands pending right now
	SubmitQueueHigh      int64 // max observed pending-command count
	CheckpointsPublished int64 // wedges at the log bound; the name stays only because the benchmark module (bench/) reads it
	TruncatedSlots       int64 // decided slots discarded with retired engine runs' logs, summed
	RetainedSlots        int64 // decided slots currently held by the engines, summed
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

	mu sync.Mutex
	// configs, chain, curID, initialized, appliedSlot, engines, tick and
	// staleTicks are read under mu and, once Start has returned, written only
	// by the apply loop (apply.go), under mu. The machine, pending and
	// readWaiters are the loop's alone: no other goroutine reads the machine,
	// and only Stats reads how many commands are pending.
	machine     *statemachine.Sessioned
	initConfig  types.Config
	configs     map[types.ConfigID]types.Config
	chain       map[types.ConfigID]ChainRecord
	curID       types.ConfigID
	initialized bool // machine state is valid for curID; applying allowed
	appliedSlot types.Slot
	// mailbox is everything other goroutines hand the apply loop: client
	// commands, fast reads' indexes, and work posted by onLoop (chain records
	// learned from peers, fetched snapshots' installs). taken is the loop's
	// reused buffer for draining it.
	mailbox     *fifo.Queue[loopMsg]
	taken       []loopMsg
	engines     map[types.ConfigID]*engineRun
	pending     map[pendKey]*pendingCmd
	readWaiters []*readWaiter   // fast-path reads awaiting their index
	cfgWaiters  []chan struct{} // signaled (closed) on every transition
	// Snapshot pipeline state (xfer.go), guarded by mu and, once Start has
	// returned, written only by the apply loop (apply.go) from its workers'
	// reports.
	serving        map[types.ConfigID]*snapServing // snapshots this node commits, from the fork until the commit ends
	transfer       types.ConfigID                  // configuration the transfer goroutine is fetching; 0 when none runs
	transferCancel context.CancelFunc              // ends the running transfer
	snapDurable    types.ConfigID                  // newest configuration whose whole snapshot this node's store holds durably
	retireNext     types.ConfigID                  // every older configuration's snapshot has been retired
	discardNext    types.ConfigID                  // every older configuration's engine namespace has been discarded
	retiring       bool                            // a retire goroutine is stopping engines or deleting what they left
	tick           int64                           // ticks the apply loop has run (houseTick)
	rng            *rand.Rand                      // jitter source, guarded by mu
	staleTicks     int                             // ticks the stale jump has waited without the apply cursor moving
	staleSlot      types.Slot                      // the apply cursor at the stale jump's last look
	gossipLeft     int
	gossipSeq      int
	stopped        bool

	// testChunkHook, when set by a test (same package), intercepts every
	// chunk this node serves: returning modified bytes simulates wire
	// corruption. Guarded by mu.
	testChunkHook func(id types.ConfigID, idx int, data []byte) []byte

	stopCh     chan struct{}
	stopOnce   sync.Once
	wg         sync.WaitGroup
	baseCtx    context.Context
	baseCancel context.CancelFunc

	lastShedWarn atomic.Int64

	// stats holds the counters the node keeps itself, incremented in place
	// under mu; Stats fills in the fields computed when it is called.
	stats NodeStats
	// workerStats are the counters the snapshot pipeline's workers and
	// server bump without mu; Stats folds them in.
	workerStats struct {
		snapshotsServed, chunksServed, chunksFetched, chunkRetries, chunkCRCRejected, violations atomic.Int64
	}
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
		self:        nc.Self,
		ep:          nc.Endpoint,
		store:       storage.Staged(nc.Store),
		factory:     nc.Factory,
		opts:        opts,
		configs:     make(map[types.ConfigID]types.Config),
		chain:       make(map[types.ConfigID]ChainRecord),
		engines:     make(map[types.ConfigID]*engineRun),
		pending:     make(map[pendKey]*pendingCmd),
		serving:     make(map[types.ConfigID]*snapServing),
		retireNext:  1, // configuration IDs start at 1; 0 is "no transfer running"
		discardNext: 1,
		rng:         rand.New(rand.NewSource(types.SeedFor(string(nc.Self)))),
		mailbox:     fifo.New[loopMsg](mailboxLimit),
		stopCh:      make(chan struct{}),
		baseCtx:     ctx,
		baseCancel:  cancel,
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
	m, chunks := serialize(statemachine.NewSessioned(n.factory()).ForkSnapshot())
	if err := storage.StageChunkedCommit(n.store, snapPrefix(initial.ID), m, func(i int) []byte { return chunks[i] }); err != nil {
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
	discarded, err := n.recoverChainLocked()
	n.discardNext = max(n.discardNext, discarded)
	n.machine = statemachine.NewSessioned(n.factory())
	cur := n.curID
	n.mu.Unlock()
	if err != nil {
		return err
	}

	if err := n.recoverMachine(cur); err != nil {
		return err
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	cur = n.curID
	// Start the engine even when the snapshot is not yet installed: the
	// engine needs no application state to vote, accept or decide
	// (speculative start); its accepted/decided records are durable in
	// their own right, so slots decided before a crash mid-transfer are
	// redelivered here and wait in the engine until the install.
	if n.configs[cur].IsMember(n.self) && (n.initialized || n.speculationOn()) {
		if err := n.ensureEngineLocked(cur); err != nil {
			return err
		}
	}

	n.peer = rpc.NewPeer(n.ep, ControlStream, n.handleRPC)
	n.wg.Add(1)
	go n.applyLoop()
	return nil
}

// recoverChainLocked loads the initial configuration and the configuration
// chain from the store, and returns the discard cursor: the engine namespaces
// of the configurations below it are gone already. Caller holds mu.
func (n *Node) recoverChainLocked() (discarded types.ConfigID, err error) {
	// A node may start with an empty store: it is a spare, idle until an
	// announce makes it a member of some configuration.
	raw, ok, err := n.store.Get("rc/init")
	if err != nil {
		return 0, err
	}
	if ok {
		init, err := types.DecodeConfig(raw)
		if err != nil {
			return 0, fmt.Errorf("init record: %w", err)
		}
		n.initConfig = init
		n.configs[init.ID] = init
		n.curID = init.ID
	}

	if raw, ok, err := n.store.Get(discardKey); err != nil {
		return 0, err
	} else if ok {
		r := types.NewReader(raw)
		if next := types.ConfigID(r.Uvarint()); r.Err() == nil {
			discarded = next
		}
	}

	// The newest known configuration is the largest successor on the chain
	// (the chain is a path).
	kvs, err := n.store.Scan("rc/chain/")
	if err != nil {
		return 0, err
	}
	for _, kv := range kvs {
		rec, err := decodeChainRecord(kv.Value)
		if err != nil {
			return 0, fmt.Errorf("chain record %s: %w", kv.Key, err)
		}
		n.chain[rec.From] = rec
		n.configs[rec.To.ID] = rec.To
		if rec.To.ID > n.curID {
			n.curID = rec.To.ID
		}
	}
	return discarded, nil
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
	}
	n.wg.Wait()
	if peer != nil {
		peer.Close()
	}
}

// speculationOn reports whether successor engines may start before their
// snapshot installs (Options.SpeculativeStart, default on).
func (n *Node) speculationOn() bool { return n.opts.SpeculativeStart != SpecOff }

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
	return n.chainSinceLocked(0)
}

// chainSinceLocked returns the chain records from configuration since on,
// ordered by From: those of the configurations after since. since 0 asks for
// the whole chain, from its oldest known record on. Caller holds mu.
func (n *Node) chainSinceLocked(since types.ConfigID) []ChainRecord {
	if since == 0 {
		for from := range n.chain {
			if since == 0 || from < since {
				since = from
			}
		}
	}
	var out []ChainRecord
	for rec, ok := n.chain[since]; ok; rec, ok = n.chain[rec.To.ID] {
		out = append(out, rec)
	}
	return out
}

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() NodeStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.stats
	w := &n.workerStats
	out.SnapshotsServed = w.snapshotsServed.Load()
	out.ChunksServed = w.chunksServed.Load()
	out.ChunksFetched = w.chunksFetched.Load()
	out.ChunkRetries = w.chunkRetries.Load()
	out.ChunkCRCRejected = w.chunkCRCRejected.Load()
	out.InvariantViolations += w.violations.Load()
	for _, run := range n.engines {
		out.RetainedSlots += countRun(&out, run).RetainedSlots
	}
	out.SubmitQueueDepth = int64(len(n.pending))
	return out
}

// Machine returns the node's sessioned machine for test inspection. Callers
// must not mutate it concurrently with a running node.
func (n *Node) Machine() *statemachine.Sessioned {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.machine
}

// transitionWaiterLocked returns a channel closed at the next transition.
func (n *Node) transitionWaiterLocked() chan struct{} {
	ch := make(chan struct{})
	n.cfgWaiters = append(n.cfgWaiters, ch)
	return ch
}
