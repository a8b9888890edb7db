package paxos

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fifo"
	"repro/internal/smr"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// Options tunes the engine's timing and pipeline. The zero value is
// normalized to the defaults below by New. Only the tick is exported: the
// cluster presets (and through them the benchmark) choose it; the batch bound
// and the election-jitter seed are fixed for every program and set only by
// this package's tests.
type Options struct {
	// TickInterval is the engine's timer granularity. Default 2ms.
	TickInterval time.Duration

	// batchSize is the maximum number of queued commands a leader packs
	// into one consensus slot. Default 16, the winner of A1's follow-up
	// sweep on the durable WAL backend (batching decides how many commands
	// share one group-commit fsync; EXPERIMENTS.md, "Historical tables").
	batchSize int
	// seed seeds the replica's private RNG (election jitter) beside the
	// stream and the member's name. Default 0.
	seed int64
}

func (o Options) withDefaults() Options {
	if o.TickInterval <= 0 {
		o.TickInterval = 2 * time.Millisecond
	}
	if o.batchSize <= 0 {
		o.batchSize = 16
	}
	return o
}

// ErrBusy is returned by Propose when the engine's proposal queue is full.
var ErrBusy = fmt.Errorf("paxos: proposal queue full")

type role uint8

const (
	roleFollower role = iota + 1
	roleCandidate
	roleLeader
)

type inboundMsg struct {
	from    types.NodeID
	kind    uint8
	payload []byte
}

// slotProgress is one open phase-2 round of the leader: the proposal, decoded
// (cmd, a view of accept) and as the Accept payload it was sent as and is sent
// again as, and the members that have voted for it, a bit each in cfg.Members
// order.
type slotProgress struct {
	cmd        types.Command
	accept     []byte
	acks       uint64
	sinceTicks int
}

// maxMembers is the largest configuration an engine serves: a round's votes
// are one bit per member in a uint64.
const maxMembers = 64

// deferredSend is an outbound message collected in the burst outbox until the
// turn ends; endBurst says which kinds then wait for the barrier. An empty
// `to` means broadcast.
type deferredSend struct {
	to      types.NodeID
	kind    uint8
	payload []byte
}

// Stats are the engine's counters, for tests: the ones every smr.Replica
// reports, and this engine's own.
type Stats struct {
	smr.Counters
	Decided             int64
	Proposals           int64
	Elections           int64
	InvariantViolations int64
}

// Replica is one member's engine instance for a single, fixed configuration.
// It implements smr.Engine.
type Replica struct {
	self   types.NodeID
	cfg    types.Config
	ep     *transport.Endpoint
	stream uint64
	store  storage.Stager
	opts   Options
	prefix string

	// The loop's three intakes (fifo: each grows with what is queued), and
	// the batches it takes from them, reused turn to turn.
	inbox     *fifo.Queue[inboundMsg]
	proposals *fifo.Queue[types.Command]
	reads     *fifo.Queue[readRequest]
	msgBuf    []inboundMsg
	cmdBuf    []types.Command
	readBuf   []readRequest

	stopCh   chan struct{}
	stopOnce sync.Once
	loopDone chan struct{}
	started  atomic.Bool

	// decCh is the public decision channel. Only the loop sends on it, never
	// blocking (endBurst), and it closes it on exit.
	decCh chan smr.Decision

	// Control mailbox: the composition layer's two requests to the loop, each
	// a latest-wins cell holding the highest slot asked for (0 = nothing
	// asked), plus a one-slot wake. Callers never wait — they hold the node
	// mutex, and since submits run on socket readers a caller parked here
	// would stall a connection — and nothing is lost by overwriting: both
	// requests are "at least this far". The loop empties the cells on wake
	// and on every tick.
	truncReq atomic.Int64
	skipReq  atomic.Int64
	ctrlWake chan struct{}

	// cross-goroutine views
	leaderHint atomic.Value // types.NodeID
	amLeader   atomic.Bool

	stats struct {
		decided, proposals, elections, violations       atomic.Int64
		droppedInbound, groupSyncs, truncated, retained atomic.Int64
	}
	lastDropWarn atomic.Int64 // unix nanos of the last overflow warning

	// Progress mirrors: atomic copies of the loop-owned frontier state so
	// the composition layer's tick can probe "how far behind am I"
	// in O(1) without a message round or a channel hop (see Progress).
	progDelivered atomic.Int64
	progMaxSeen   atomic.Int64
	progTrunc     atomic.Int64
	ckptNeeded    atomic.Bool

	// --- state below is owned exclusively by the event loop goroutine ---
	rng      *rand.Rand
	promised types.Ballot
	accepted map[types.Slot]acceptedEntry
	decided  map[types.Slot]types.Command

	deliverNext    types.Slot // next slot to hand to the application
	maxDecidedSeen types.Slot // highest slot known decided anywhere
	truncatedBelow types.Slot // slots <= this are released (checkpointed)

	role          role
	ballot        types.Ballot // owned ballot while candidate/leader
	maxBallotSeen types.Ballot
	promises      map[types.NodeID]promiseMsg
	pending       []types.Command
	inflight      map[types.Slot]*slotProgress
	nextSlot      types.Slot

	ticksSinceHB     int
	electionDeadline int
	hbCountdown      int
	prepareAge       int
	catchupCooldown  int

	// group commit (loop-owned): every loop turn drains a burst of events
	// with its writes staged and its outbound frames and decisions collected,
	// then makes the whole burst durable with one Sync before anything that
	// asserts the staged state leaves the replica (see endBurst for which
	// frames that is). This is what lets a pipeline deeper than one slot
	// overlap durable slots instead of serializing one fsync per accept.
	burstDirty bool
	outbox     []deferredSend
	// heldDecisions are the delivered decisions the consumer has not taken
	// yet, in slot order: this turn's, waiting for the barrier, behind any
	// an earlier turn could not fit into decCh (sendDecisions).
	heldDecisions []smr.Decision
	// stableNext is deliverNext as of the last barrier: the delivered prefix a
	// restart is sure to recover, whatever tail of dec/ records it loses, and
	// the first slot a Prepare asks promisers to report. A Prepare leaves
	// before the turn's barrier, so a crash can take the ballot's own promised
	// record with it, the restarted replica can pick the same ballot again,
	// and a Promise answering the earlier Prepare then counts for the new one.
	// That is harmless as long as the earlier Prepare asked for no less than
	// the new one does — and the new one asks from wherever recovery finds the
	// delivered prefix, which is never below what was stable when the earlier
	// one was sent, but may be below what had been delivered (dec/ records
	// ride the next barrier).
	stableNext types.Slot

	// read fast path (see read.go)
	curProbe      *probeRound
	nextReads     []func(index types.Slot, err error)
	probeSeq      uint64
	electionFloor types.Slot
}

var _ smr.Replica = (*Replica)(nil)

// New constructs a replica of the static engine for cfg on node self.
// The stream number isolates this instance's traffic on the shared endpoint;
// storage keys are namespaced by it as well.
//
// Engine start is deliberately decoupled from application-state readiness:
// a replica needs nothing beyond its own promised/accepted/decided records
// to vote, accept and decide, so the composition layer boots a successor
// engine speculatively while the state snapshot is still streaming in. The
// engine's records are durable in their own right (and recovered here by
// recover()), which is what lets slots decided before a crash mid-transfer
// survive and be redelivered after restart.
func New(cfg types.Config, self types.NodeID, ep *transport.Endpoint, store storage.Store, stream uint64, opts Options) (*Replica, error) {
	if !cfg.IsMember(self) {
		return nil, fmt.Errorf("%w: %s not in %s", smr.ErrNotMember, self, cfg)
	}
	if cfg.N() > maxMembers {
		return nil, fmt.Errorf("paxos: %d members in %s, at most %d", cfg.N(), cfg, maxMembers)
	}
	r := &Replica{
		self:      self,
		cfg:       cfg.Clone(),
		ep:        ep,
		stream:    stream,
		store:     storage.Staged(store),
		opts:      opts.withDefaults(),
		prefix:    fmt.Sprintf("pxs/%d/", stream),
		inbox:     fifo.New[inboundMsg](inboxLimit),
		proposals: fifo.New[types.Command](proposeLimit),
		reads:     fifo.New[readRequest](readLimit),
		ctrlWake:  make(chan struct{}, 1),
		stopCh:    make(chan struct{}),
		loopDone:  make(chan struct{}),
		decCh:     make(chan smr.Decision, decChLen),
		rng:       rand.New(rand.NewSource(opts.seed ^ int64(stream) ^ types.SeedFor(string(self)))),
		accepted:  make(map[types.Slot]acceptedEntry),
		decided:   make(map[types.Slot]types.Command),
		promises:  make(map[types.NodeID]promiseMsg),
		inflight:  make(map[types.Slot]*slotProgress),
		role:      roleFollower,

		deliverNext: 1,
		nextSlot:    1,
	}
	r.leaderHint.Store(types.NodeID(""))
	if err := r.recover(); err != nil {
		return nil, fmt.Errorf("paxos recovery: %w", err)
	}
	return r, nil
}

// recover reloads acceptor and learner state from stable storage, so a
// restarted process keeps its promises and redelivers its decided prefix.
func (r *Replica) recover() error {
	if raw, ok, err := r.store.Get(r.prefix + "promised"); err != nil {
		return err
	} else if ok {
		rd := types.NewReader(raw)
		r.promised = rd.Ballot()
		if err := rd.Err(); err != nil {
			return fmt.Errorf("promised record: %w", err)
		}
		r.maxBallotSeen = r.promised
	}
	if raw, ok, err := r.store.Get(r.prefix + "trunc"); err != nil {
		return err
	} else if ok {
		rd := types.NewReader(raw)
		r.truncatedBelow = types.Slot(rd.Uvarint())
		if err := rd.Err(); err != nil {
			return fmt.Errorf("truncation record: %w", err)
		}
		// Slots <= the floor were released after a durable checkpoint: the
		// application recovers them from the checkpoint, not the log. The
		// floor is written before the records under it go (release), so a
		// crash in between leaves acc/dec records below it: the scans below
		// skip them and finish the job, staged, on nobody's critical path.
		r.deliverNext = r.truncatedBelow + 1
		r.nextSlot = r.truncatedBelow + 1
		r.maxDecidedSeen = r.truncatedBelow
	}
	accs, err := r.store.Scan(r.prefix + "acc/")
	if err != nil {
		return err
	}
	for _, kv := range accs {
		e, err := decodeAccept(kv.Value)
		if err != nil {
			return fmt.Errorf("accepted record %s: %w", kv.Key, err)
		}
		if e.Slot <= r.truncatedBelow {
			r.unstage(kv.Key)
			continue
		}
		r.accepted[e.Slot] = e
	}
	decs, err := r.store.Scan(r.prefix + "dec/")
	if err != nil {
		return err
	}
	for _, kv := range decs {
		d, err := decodeDecide(kv.Value)
		if err != nil {
			return fmt.Errorf("decided record %s: %w", kv.Key, err)
		}
		if d.Slot <= r.truncatedBelow {
			r.unstage(kv.Key)
			continue
		}
		if d.Slot > r.maxDecidedSeen {
			r.maxDecidedSeen = d.Slot
		}
		if d.ByRef {
			// A marker is written after the accepted record it names and that
			// record is never overwritten, so a mismatch is a damaged store.
			// The slot is known decided but its command is not: leave it
			// undecided here and let catch-up refetch it by value.
			e, ok := r.accepted[d.Slot]
			if !ok || !e.Ballot.Equal(d.Ballot) {
				r.stats.violations.Add(1)
				continue
			}
			d.Cmd = e.Cmd
		}
		r.decided[d.Slot] = d.Cmd
	}
	if s := types.Slot(len(r.decided)); s > 0 {
		// nextSlot must clear everything we might know about.
		for slot := range r.decided {
			if slot >= r.nextSlot {
				r.nextSlot = slot + 1
			}
		}
	}
	for slot := range r.accepted {
		if slot >= r.nextSlot {
			r.nextSlot = slot + 1
		}
	}
	r.stats.retained.Store(int64(len(r.decided)))
	r.publishProgress()
	return nil
}

// Start implements smr.Engine.
func (r *Replica) Start() error {
	if r.started.Swap(true) {
		return fmt.Errorf("paxos: Start called twice")
	}
	r.ep.Handle(r.stream, r.receive)
	go r.loop()
	return nil
}

// receive is the replica's transport handler: it queues a frame for the loop.
// On overflow the frame is dropped, like the network would — but counted, and
// warned about (rate-limited), because a saturated event loop is an
// operational problem the protocol merely tolerates.
func (r *Replica) receive(from types.NodeID, _ uint64, kind uint8, payload []byte) {
	if !r.inbox.TryPut(inboundMsg{from: from, kind: kind, payload: payload}) {
		r.warnDropped(r.stats.droppedInbound.Add(1))
	}
}

// Stop implements smr.Engine. It is idempotent; after it returns no further
// decisions are delivered and the decision channel is closed.
func (r *Replica) Stop() {
	r.stopOnce.Do(func() {
		close(r.stopCh)
		r.ep.Handle(r.stream, nil)
	})
	if r.started.Load() {
		<-r.loopDone
	}
}

// Propose implements smr.Engine.
func (r *Replica) Propose(cmd types.Command) error {
	select {
	case <-r.stopCh:
		return smr.ErrStopped
	default:
	}
	if !r.proposals.TryPut(cmd) {
		return ErrBusy
	}
	return nil
}

// Decisions implements smr.Engine.
func (r *Replica) Decisions() <-chan smr.Decision { return r.decCh }

// Leader implements smr.Engine.
func (r *Replica) Leader() (types.NodeID, bool) {
	hint, _ := r.leaderHint.Load().(types.NodeID)
	return hint, r.amLeader.Load()
}

// Stats returns a snapshot of the engine's counters.
func (r *Replica) Stats() Stats {
	return Stats{
		Counters:            r.Counters(),
		Decided:             r.stats.decided.Load(),
		Proposals:           r.stats.proposals.Load(),
		Elections:           r.stats.elections.Load(),
		InvariantViolations: r.stats.violations.Load(),
	}
}

// Counters implements smr.Replica. GroupCommits against Stats.Decided shows
// the fsync amortization the pipeline achieves (see endBurst).
func (r *Replica) Counters() smr.Counters {
	return smr.Counters{
		DroppedInbound: r.stats.droppedInbound.Load(),
		GroupCommits:   r.stats.groupSyncs.Load(),
		TruncatedSlots: r.stats.truncated.Load(),
		RetainedSlots:  r.stats.retained.Load(),
	}
}

// warnDropped logs at most one inbox-overflow warning per second.
func (r *Replica) warnDropped(total int64) {
	now := time.Now().UnixNano()
	last := r.lastDropWarn.Load()
	if now-last < int64(time.Second) {
		return
	}
	if r.lastDropWarn.CompareAndSwap(last, now) {
		log.Printf("paxos: %s stream %d inbox overflow, dropping inbound messages (%d dropped so far)",
			r.self, r.stream, total)
	}
}

// loop is the single-threaded protocol engine; all Paxos state is owned here.
func (r *Replica) loop() {
	// LIFO: loopDone closes first, then finishReads drains, so a ReadIndex
	// racing with shutdown can detect the closed loop and self-drain (see
	// read.go) without ever losing a callback.
	defer r.finishReads()
	defer close(r.loopDone)
	defer close(r.decCh)
	ticker := time.NewTicker(r.opts.TickInterval)
	defer ticker.Stop()

	r.armFirstElection()

	// The first turn redelivers the recovered decided prefix to the
	// application and ends in a barrier whatever it staged. Not all of what
	// recover read need be stable yet — a predecessor stopped in this process
	// with dec/ records staged, or recover itself dropped what an interrupted
	// release left — and on a store just opened from disk the Sync has
	// nothing to flush. (Until a barrier succeeds, stableNext claims nothing
	// and the redelivery stays held.) It is also the barrier an engine over a
	// just-bootstrapped store starts from: the composition stages its initial
	// state and leaves it to this Sync, which runs before the engine's first
	// promise, vote or decision.
	r.deliverReady()
	r.burstDirty = true
	r.endBurst()

	for {
		select {
		case <-r.stopCh:
			return
		case <-r.inbox.Wake():
		case <-r.proposals.Wake():
		case <-r.reads.Wake():
		case <-r.ctrlWake:
			r.runControl()
		case <-ticker.C:
			r.runControl()
			r.tick()
		}
		r.drainBurst(burstBudget)
		// Slots are assigned once per turn, after the intake is drained and
		// before the group-commit barrier: whatever was proposed, forwarded or
		// re-queued during the turn shares one Accept, one acc/ record and one
		// Sync (or, on a follower, one forward frame).
		r.placePending()
		r.endBurst()
		r.publishProgress()
	}
}

// burstBudget caps how many queued events one group-commit burst absorbs
// before it must sync and release its replies; it bounds both the latency
// a staged write can sit unfsynced and the outbox growth.
const burstBudget = 256

// The intakes' bounds. A full inbox drops (and counts, DroppedInbound); a full
// proposal or read queue answers ErrBusy. decChLen is the decision channel's
// capacity, several turns' worth of decisions: what does not fit waits in
// heldDecisions for a later turn, so the size only sets how far a consumer
// may fall behind before its backlog goes at the loop's pace.
const (
	inboxLimit   = 8192
	proposeLimit = 1024
	readLimit    = 4096
	decChLen     = 1024
)

// drainBurst greedily absorbs events that are already queued into the turn,
// so their persistence shares the single group-commit fsync and the proposals
// among them share a slot. It never blocks: the turn ends as soon as the
// backlog (or budget) runs out. Each intake is taken a batch at a time, and
// what the budget leaves behind re-arms its queue's wake (Take), so the next
// turn starts at once.
func (r *Replica) drainBurst(budget int) {
	for budget > 0 {
		msgs := r.inbox.Take(r.msgBuf[:0], budget)
		budget -= len(msgs)
		cmds := r.proposals.Take(r.cmdBuf[:0], budget)
		budget -= len(cmds)
		reads := r.reads.Take(r.readBuf[:0], budget)
		budget -= len(reads)
		if len(msgs)+len(cmds)+len(reads) == 0 {
			return
		}
		for _, m := range msgs {
			r.handleMessage(m)
		}
		for _, cmd := range cmds {
			r.handlePropose(cmd)
		}
		for _, req := range reads {
			r.handleRead(req)
		}
		// Keep the arrays, not what they point at: a frame stays pinned only
		// as long as something of the replica's own keeps it.
		clear(msgs)
		clear(cmds)
		clear(reads)
		r.msgBuf, r.cmdBuf, r.readBuf = msgs, cmds, reads
	}
}

// endBurst is the group-commit barrier: one Sync makes every write staged
// during the burst durable. The rule for what waits for it: a frame or a
// decision waits if, and only if, it asserts state this replica has staged.
//
//	kind             waits  why
//	Prepare, Accept  no     They ask; they assert nothing. The proposer's own
//	                        promise and vote are staged beside them, and the
//	                        answers are counted next to that vote in a later
//	                        turn, which starts after this Sync has returned —
//	                        so the proposer's fsync overlaps its peers'
//	                        instead of preceding them. What must survive a
//	                        restart that loses the turn is covered without
//	                        the frame waiting: a ballot that sent any Accept
//	                        was made stable a turn earlier, and a Prepare asks
//	                        from the stable prefix only (stableNext).
//	Promise          yes    asserts promised
//	Accepted         yes    asserts acc/<slot> (and promised)
//	Decide           yes    asserts a quorum of votes, the leader's own staged
//	                        acc/<slot> among them (a same-turn decide with
//	                        n = 1 is nothing but that vote)
//	decisions        yes    the same, towards the application
//	everything else  yes    Nothing to gain: heartbeats, probes, forwards and
//	                        catch-up traffic come from turns that are rarely
//	                        dirty, and they keep their order behind Decide.
//
// A dec/ record never makes a turn dirty (persistDecided), and a turn that
// staged nothing else skips the Sync altogether. If the sync fails, nothing
// that waits is released: unsynced state must not be externalized. The frames
// are dropped — peers retransmit exactly as they would for lost messages —
// while the decisions stay held and the replica stays dirty, so every later
// turn tries the barrier again before it releases anything, however clean the
// turn itself. (In practice a failed sync here means the store was closed
// under a stopping replica.)
func (r *Replica) endBurst() {
	if r.burstDirty {
		held := r.outbox[:0]
		for _, m := range r.outbox {
			if m.kind == KindPrepare || m.kind == KindAccept {
				r.transmit(m)
			} else {
				held = append(held, m)
			}
		}
		r.outbox = held
		if err := r.store.Sync(); err != nil {
			if err != storage.ErrStoreClosed {
				r.stats.violations.Add(1)
			}
			r.outbox = r.outbox[:0]
			return
		}
		r.burstDirty = false
		r.stats.groupSyncs.Add(1)
		r.stableNext = r.deliverNext
	}
	for _, m := range r.outbox {
		r.transmit(m)
	}
	r.outbox = r.outbox[:0]
	r.sendDecisions()
}

// sendDecisions hands the held decisions to the consumer, in order, as far as
// the channel has room. It never blocks: a consumer that falls behind leaves
// the rest held, and the next turn's endBurst — a tick away at the latest —
// sends on from there. Every decision held here is past its barrier.
func (r *Replica) sendDecisions() {
	// The loop is the channel's only sender, so the room it sees cannot
	// shrink before it has used it.
	sent := min(len(r.heldDecisions), cap(r.decCh)-len(r.decCh))
	if sent == 0 {
		// A consumer that takes nothing for now — a speculative engine's,
		// until its configuration is installed — costs no copy per turn.
		return
	}
	for _, d := range r.heldDecisions[:sent] {
		r.decCh <- d
	}
	rest := copy(r.heldDecisions, r.heldDecisions[sent:])
	clear(r.heldDecisions[rest:])
	r.heldDecisions = r.heldDecisions[:rest]
}

// transmit puts one collected frame on the fabric.
func (r *Replica) transmit(m deferredSend) {
	if m.to == "" {
		r.ep.Broadcast(r.cfg.Members, r.stream, m.kind, m.payload)
	} else {
		_ = r.ep.Send(m.to, r.stream, m.kind, m.payload)
	}
}

// armFirstElection sets the deadline of the replica's first election. The
// lexically smallest member starts an election on its first tick so fresh
// configurations get a leader without waiting out a timeout; everyone else
// uses the randomized timeout.
func (r *Replica) armFirstElection() {
	if r.cfg.Members[0] == r.self {
		r.electionDeadline = 1
	} else {
		r.resetElectionDeadline()
	}
}

func (r *Replica) resetElectionDeadline() {
	r.electionDeadline = electionTimeoutTicks + r.rng.Intn(electionJitterTicks+1)
	r.ticksSinceHB = 0
}

// --- log truncation & progress ---------------------------------------------

// Progress implements smr.Replica: an O(1), lock-free read of atomic
// mirrors. MaxDecidedSeen comes from heartbeats, promises and catch-up
// responses; CheckpointNeeded is raised when a peer redirects a catch-up
// request below its truncation floor.
func (r *Replica) Progress() smr.Progress {
	return smr.Progress{
		Delivered:        types.Slot(r.progDelivered.Load()),
		MaxDecidedSeen:   types.Slot(r.progMaxSeen.Load()),
		TruncatedBelow:   types.Slot(r.progTrunc.Load()),
		CheckpointNeeded: r.ckptNeeded.Load(),
	}
}

// publishProgress refreshes the atomic mirrors from the loop-owned state.
// Called by the event loop after each wakeup (and once from recovery, before
// the loop starts).
func (r *Replica) publishProgress() {
	r.progDelivered.Store(int64(r.deliverNext - 1))
	r.progMaxSeen.Store(int64(r.maxDecidedSeen))
	r.progTrunc.Store(int64(r.truncatedBelow))
}

// request raises a control cell to at least slot and wakes the loop. It never
// blocks, whatever the loop is doing.
func (r *Replica) request(cell *atomic.Int64, slot types.Slot) {
	for {
		cur := cell.Load()
		if int64(slot) <= cur || cell.CompareAndSwap(cur, int64(slot)) {
			break
		}
	}
	select {
	case r.ctrlWake <- struct{}{}:
	default: // a wake is already pending; the loop will see this request too
	}
}

// runControl applies whatever the control cells hold. The skip goes first:
// it may move the delivered prefix a truncation is clamped to.
func (r *Replica) runControl() {
	if base := types.Slot(r.skipReq.Swap(0)); base > 0 {
		r.skipTo(base)
	}
	if floor := types.Slot(r.truncReq.Swap(0)); floor > 0 {
		r.truncateBelow(floor)
	}
}

// TruncateBelow releases learner and acceptor state for all slots <= floor.
// The caller (the composition layer) must guarantee that a checkpoint
// covering those slots is durable and quorum-acknowledged first: after
// truncation this replica refuses phase-2 votes at released slots and
// answers catch-up requests for them with a checkpoint redirect instead of
// entries. The floor is clamped to the delivered prefix — undelivered slots
// are never truncated. Safe from any goroutine and never blocks; applied
// asynchronously on the event loop, and of several calls the loop has not
// yet seen only the highest floor is applied.
func (r *Replica) TruncateBelow(floor types.Slot) {
	r.request(&r.truncReq, floor)
}

// SkipTo installs a checkpoint's base index: the application has restored
// state covering every slot <= base, so delivery resumes at base+1 and the
// skipped slots are released exactly as TruncateBelow would. Used by a
// lagging member after a checkpoint fetch. Safe from any goroutine and never
// blocks; the highest base wins.
func (r *Replica) SkipTo(base types.Slot) {
	r.request(&r.skipReq, base)
}

// truncateBelow is the loop-side release of slots the application has
// checkpointed: the floor is clamped to the delivered prefix.
func (r *Replica) truncateBelow(floor types.Slot) {
	if floor >= r.deliverNext {
		floor = r.deliverNext - 1
	}
	if floor <= r.truncatedBelow {
		return
	}
	r.release(floor)
	r.publishProgress()
}

// skipTo is the loop-side checkpoint install: jump the delivery cursor to
// base+1 and release everything at or below base.
func (r *Replica) skipTo(base types.Slot) {
	if base < r.deliverNext {
		// Already past the checkpoint; nothing to skip. Still clear the
		// checkpoint-needed latch: the fetch that triggered it completed.
		r.ckptNeeded.Store(false)
		return
	}
	r.deliverNext = base + 1
	if base > r.maxDecidedSeen {
		r.maxDecidedSeen = base
	}
	if r.nextSlot <= base {
		r.nextSlot = base + 1
	}
	r.release(base)
	r.ckptNeeded.Store(false)
	r.publishProgress()
	// Decisions above the base may already be decided and contiguous now.
	r.deliverReady()
}

// release raises the truncation floor and drops everything this replica
// holds for the slots (truncatedBelow, floor]. The floor goes to the store
// first and the records under it after, all staged, so one barrier covers a
// release of any size, and a crash that keeps only part of it keeps the
// floor: recover skips, and drops, whatever lies below it. The other order
// could lose the floor and keep the holes. A proposal of our own still open
// at a released slot can never complete there — learn ignores the slot, the
// acceptors answer with a checkpoint redirect — so it goes back to the queue
// for a fresh slot (session dedup upstairs makes a second decision harmless);
// left in place, a few of them would fill the pipeline window for good.
func (r *Replica) release(floor types.Slot) {
	prev := r.truncatedBelow
	r.truncatedBelow = floor
	r.persistTruncated()
	dec, acc := r.prefix+"dec/", r.prefix+"acc/"
	for slot := prev + 1; slot <= floor; slot++ {
		if _, ok := r.decided[slot]; ok {
			delete(r.decided, slot)
			r.unstage(storage.SlotKey(dec, uint64(slot)))
		}
		if _, ok := r.accepted[slot]; ok {
			delete(r.accepted, slot)
			r.unstage(storage.SlotKey(acc, uint64(slot)))
		}
		if sp, ok := r.inflight[slot]; ok {
			delete(r.inflight, slot)
			r.enqueue(sp.cmd)
		}
	}
	r.stats.truncated.Add(int64(floor - prev))
	r.stats.retained.Store(int64(len(r.decided)))
}

func (r *Replica) persistTruncated() {
	w := types.NewWriter(8)
	w.Uvarint(uint64(r.truncatedBelow))
	if err := r.setDurable(r.prefix+"trunc", w.Bytes()); err != nil {
		r.stats.violations.Add(1)
	}
}

// Factory returns the smr.Factory of replicas built with opts.
func Factory(opts Options) smr.Factory { return factory(opts) }

type factory Options

// New implements smr.Factory.
func (f factory) New(cfg types.Config, self types.NodeID, ep *transport.Endpoint, store storage.Store, stream uint64) (smr.Replica, error) {
	r, err := New(cfg, self, ep, store, stream, Options(f))
	if err != nil {
		return nil, err // not a nil *Replica in a non-nil interface
	}
	return r, nil
}

// Floor reads the persisted truncation floor of a stream without
// instantiating a replica: one store Get. The composition layer plans
// recovery with it (a corrupt snapshot can only fall back to full log replay
// when the log still starts at slot 1).
func (factory) Floor(store storage.Store, stream uint64) (types.Slot, error) {
	raw, ok, err := store.Get(fmt.Sprintf("pxs/%d/", stream) + "trunc")
	if err != nil || !ok {
		return 0, err
	}
	rd := types.NewReader(raw)
	floor := types.Slot(rd.Uvarint())
	if err := rd.Err(); err != nil {
		return 0, fmt.Errorf("truncation record: %w", err)
	}
	return floor, nil
}
