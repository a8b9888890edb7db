package paxos

import (
	"math/bits"

	"repro/internal/smr"
	"repro/internal/storage"
	"repro/internal/types"
)

// --- persistence -----------------------------------------------------------

func (r *Replica) persistPromised() {
	w := types.NewWriter(16)
	w.Ballot(r.promised)
	// Stable storage failures are unrecoverable for an acceptor; surface
	// them as invariant violations so tests notice.
	if err := r.setDurable(r.prefix+"promised", w.Bytes()); err != nil {
		r.stats.violations.Add(1)
	}
}

// persistAccepted stores rec, an entry's one encoding (encodeAccept), under
// acc/<slot>. The store keeps the slice it is given, so on the leader this is
// the buffer the broadcast reads from and on an acceptor the frame's payload.
func (r *Replica) persistAccepted(slot types.Slot, rec []byte) {
	if err := r.setDurable(storage.SlotKey(r.prefix+"acc/", uint64(slot)), rec); err != nil {
		r.stats.violations.Add(1)
	}
}

// persistDecided writes the dec/ record in the decide codec: a by-reference
// decision stores only (slot, ballot), because the command is already durable
// under acc/<slot> at that ballot and is never overwritten there (a decided
// slot takes no further votes, see onAccept); recover resolves the marker
// through the accepted record. A decision learned by value stores the command.
//
// The record asks for no barrier of its own. A value is chosen because a
// quorum holds it under acc/, not because anybody wrote dec/: the record only
// saves a restarted replica from learning the slot again. It rides whichever
// barrier comes next — store order keeps a marker behind the accepted record
// it names — and a restart that lost a tail of them finds those slots
// undecided and fetches them through the ordinary catch-up.
func (r *Replica) persistDecided(d decideMsg) {
	if err := r.store.SetBuffered(storage.SlotKey(r.prefix+"dec/", uint64(d.Slot)), encodeDecide(d)); err != nil {
		r.stats.violations.Add(1)
	}
}

// --- message dispatch ------------------------------------------------------

func (r *Replica) handleMessage(m inboundMsg) {
	switch m.kind {
	case KindPrepare:
		msg, err := decodePrepare(m.payload)
		if err == nil {
			r.onPrepare(m.from, msg)
		}
	case KindPromise:
		msg, err := decodePromise(m.payload)
		if err == nil {
			r.onPromise(m.from, msg)
		}
	case KindAccept:
		e, err := decodeAccept(m.payload)
		if err == nil {
			r.onAccept(m.from, e, m.payload)
		}
	case KindAccepted:
		msg, err := decodeAccepted(m.payload)
		if err == nil {
			r.onAccepted(m.from, msg)
		}
	case KindDecide:
		msg, err := decodeDecide(m.payload)
		if err != nil {
			break
		}
		if !msg.ByRef {
			r.learn(msg)
		} else if !r.learnAccepted(msg.Slot, msg.Ballot) && msg.Slot > r.maxDecidedSeen {
			// The Accept was lost, or we have since accepted a newer ballot:
			// the slot is decided but its command is not here. The tick's
			// catch-up round fetches it by value.
			r.maxDecidedSeen = msg.Slot
		}
	case KindHeartbeat:
		msg, err := decodeHeartbeat(m.payload)
		if err == nil {
			r.onHeartbeat(msg)
		}
	case KindCatchupReq:
		msg, err := decodeCatchupReq(m.payload)
		if err == nil {
			r.onCatchupReq(m.from, msg)
		}
	case KindCatchupResp:
		msg, err := decodeCatchupResp(m.payload)
		if err == nil {
			for _, e := range msg.Entries {
				r.learn(decideMsg{Slot: e.Slot, Cmd: e.Cmd})
			}
			// Appended progress fields: the responder's contiguous frontier
			// is a decided watermark, and a truncation floor at or above our
			// delivery cursor means the missing prefix is gone from the log —
			// only a checkpoint install (reconfig layer) can fill it.
			if msg.Frontier > r.maxDecidedSeen {
				r.maxDecidedSeen = msg.Frontier
			}
			if msg.TruncatedBelow >= r.deliverNext {
				if msg.TruncatedBelow > r.maxDecidedSeen {
					r.maxDecidedSeen = msg.TruncatedBelow
				}
				r.ckptNeeded.Store(true)
			}
		}
	case KindForward:
		msg, err := decodeForward(m.payload)
		if err == nil {
			for _, cmd := range msg.Cmds {
				r.handlePropose(cmd)
			}
		}
	case KindReadProbe:
		msg, err := decodeReadProbe(m.payload)
		if err == nil {
			r.onReadProbe(m.from, msg)
		}
	case KindReadProbeAck:
		msg, err := decodeReadProbeAck(m.payload)
		if err == nil {
			r.onReadProbeAck(m.from, msg)
		}
	}
}

// send and broadcast collect a frame in the turn's outbox; endBurst puts it on
// the fabric.
func (r *Replica) send(to types.NodeID, kind uint8, payload []byte) {
	if to == r.self {
		return // local interactions are handled synchronously, never sent
	}
	r.outbox = append(r.outbox, deferredSend{to: to, kind: kind, payload: payload})
}

func (r *Replica) broadcast(kind uint8, payload []byte) {
	r.outbox = append(r.outbox, deferredSend{kind: kind, payload: payload})
}

// setDurable stages state that something leaving this turn will assert: a
// promise, a vote, the truncation floor. The turn is marked dirty, so it ends
// in a group-commit Sync strictly before any frame that waits for the
// barrier, or any decision, is released (endBurst).
func (r *Replica) setDurable(key string, value []byte) error {
	r.burstDirty = true
	return r.store.SetBuffered(key, value)
}

// unstage stages the delete of a record under the truncation floor. A failed
// delete changes nothing: the record stays below the floor, where recover
// skips it and drops it again.
func (r *Replica) unstage(key string) {
	_ = r.store.DeleteBuffered(key)
}

// --- acceptor role ---------------------------------------------------------

// acceptPrepare applies phase-1a to the local acceptor state and returns the
// promise to send back. Persisting happens before the reply leaves.
func (r *Replica) acceptPrepare(msg prepareMsg) promiseMsg {
	if msg.Ballot.Less(r.promised) {
		return promiseMsg{Ballot: msg.Ballot, OK: false, Promised: r.promised,
			Decided: r.deliverNext - 1, TruncatedBelow: r.truncatedBelow}
	}
	if r.promised.Less(msg.Ballot) {
		r.promised = msg.Ballot
		r.persistPromised()
	}
	out := promiseMsg{Ballot: msg.Ballot, OK: true, Promised: r.promised,
		Decided: r.deliverNext - 1, TruncatedBelow: r.truncatedBelow}
	for slot, e := range r.accepted {
		if slot >= msg.From {
			out.Accepted = append(out.Accepted, e)
		}
	}
	return out
}

func (r *Replica) onPrepare(from types.NodeID, msg prepareMsg) {
	if r.maxBallotSeen.Less(msg.Ballot) {
		r.maxBallotSeen = msg.Ballot
	}
	pm := r.acceptPrepare(msg)
	if pm.OK && (r.role == roleLeader || r.role == roleCandidate) && r.ballot.Less(msg.Ballot) {
		r.stepDown()
	}
	r.send(from, KindPromise, encodePromise(pm))
}

// acceptAccept applies phase-2a locally — msg is the proposal, rec its
// encoding — and returns the vote.
func (r *Replica) acceptAccept(msg acceptedEntry, rec []byte) acceptedMsg {
	if msg.Ballot.Less(r.promised) {
		return acceptedMsg{Ballot: msg.Ballot, Slot: msg.Slot, OK: false, Promised: r.promised}
	}
	if r.promised.Less(msg.Ballot) {
		r.promised = msg.Ballot
		r.persistPromised()
	}
	r.accepted[msg.Slot] = msg
	r.persistAccepted(msg.Slot, rec)
	if msg.Slot >= r.nextSlot {
		r.nextSlot = msg.Slot + 1
	}
	return acceptedMsg{Ballot: msg.Ballot, Slot: msg.Slot, OK: true, Promised: r.promised}
}

func (r *Replica) onAccept(from types.NodeID, msg acceptedEntry, rec []byte) {
	if r.maxBallotSeen.Less(msg.Ballot) {
		r.maxBallotSeen = msg.Ballot
	}
	if (r.role == roleLeader || r.role == roleCandidate) && r.ballot.Less(msg.Ballot) {
		r.stepDown()
	}
	// Fast path for already-decided slots: tell the proposer directly.
	if cmd, ok := r.decided[msg.Slot]; ok {
		r.send(from, KindDecide, encodeDecide(decideMsg{Slot: msg.Slot, Cmd: cmd}))
		return
	}
	// Truncated slots were chosen, quorum-acknowledged by a checkpoint, and
	// released — the command bytes are gone, so neither the decided fast
	// path nor a fresh vote is possible. Voting would be outright unsafe: a
	// leader that missed the checkpoint could noop-fill a released slot and
	// this vote would help decide a second, different value for it. Answer
	// with a checkpoint redirect instead (never a silent miss).
	if msg.Slot <= r.truncatedBelow {
		r.send(from, KindCatchupResp, encodeCatchupResp(catchupRespMsg{
			Frontier:       r.deliverNext - 1,
			TruncatedBelow: r.truncatedBelow,
		}))
		return
	}
	am := r.acceptAccept(msg, rec)
	r.send(from, KindAccepted, encodeAccepted(am))
}

// --- proposer / leader role --------------------------------------------------

func (r *Replica) startElection() {
	r.stats.elections.Add(1)
	r.role = roleCandidate
	r.amLeader.Store(false)
	base := r.maxBallotSeen
	if base.Less(r.promised) {
		base = r.promised
	}
	if base.Less(r.ballot) {
		base = r.ballot
	}
	r.ballot = base.Next(r.self)
	if r.maxBallotSeen.Less(r.ballot) {
		r.maxBallotSeen = r.ballot
	}
	r.promises = make(map[types.NodeID]promiseMsg, r.cfg.N())
	r.prepareAge = 0
	r.resetElectionDeadline()

	msg := prepareMsg{Ballot: r.ballot, From: r.stableNext}
	// Promise to ourselves first (persisted), then solicit the others.
	self := r.acceptPrepare(msg)
	r.broadcast(KindPrepare, encodePrepare(msg))
	r.onPromise(r.self, self)
}

func (r *Replica) onPromise(from types.NodeID, msg promiseMsg) {
	if r.role != roleCandidate || !msg.Ballot.Equal(r.ballot) {
		return
	}
	if !msg.OK {
		if r.maxBallotSeen.Less(msg.Promised) {
			r.maxBallotSeen = msg.Promised
		}
		r.stepDown()
		return
	}
	if msg.Decided > r.maxDecidedSeen {
		r.maxDecidedSeen = msg.Decided
	}
	r.promises[from] = msg
	if len(r.promises) >= r.cfg.Quorum() {
		r.becomeLeader()
	}
}

func (r *Replica) becomeLeader() {
	r.role = roleLeader
	r.amLeader.Store(true)
	r.leaderHint.Store(r.self)
	r.inflight = make(map[types.Slot]*slotProgress)

	// Adopt the highest-ballot accepted value per open slot from the
	// promise quorum; slots with no reported value get noops.
	from := r.deliverNext
	best := make(map[types.Slot]acceptedEntry)
	var maxSeen types.Slot
	for _, pm := range r.promises {
		for _, e := range pm.Accepted {
			if e.Slot < from {
				continue
			}
			if cur, ok := best[e.Slot]; !ok || cur.Ballot.Less(e.Ballot) {
				best[e.Slot] = e
			}
			if e.Slot > maxSeen {
				maxSeen = e.Slot
			}
		}
	}
	if r.nextSlot <= maxSeen {
		r.nextSlot = maxSeen + 1
	}
	if r.nextSlot < from {
		r.nextSlot = from
	}
	// Truncation floors reported by the promise quorum. Every slot at or
	// below a promiser's floor is globally chosen (floors rise only after a
	// quorum-acknowledged checkpoint), but its value may be unrecoverable
	// from this quorum: the promiser that accepted it has released the
	// bytes, and any accepted entry another promiser reports for it may be
	// a stale lower-ballot value that lost. Re-proposing anything at such a
	// slot — a noop or a reported value — risks deciding a second value, so
	// those slots are skipped entirely; the checkpoint covers them.
	maxFloor := r.truncatedBelow
	for _, pm := range r.promises {
		if pm.TruncatedBelow > maxFloor {
			maxFloor = pm.TruncatedBelow
		}
	}
	if maxFloor > r.maxDecidedSeen {
		r.maxDecidedSeen = maxFloor
	}
	if r.deliverNext <= maxFloor {
		// Our own delivery cursor is inside the released range: no log
		// replay can fill it, only a checkpoint install.
		r.ckptNeeded.Store(true)
	}
	// Read fast-path bookkeeping: every command chosen before this election
	// is below nextSlot now (promise-quorum intersection), so nextSlot-1 is
	// a floor for all read indexes this term. No probe round from an earlier
	// term survives the transition.
	r.electionFloor = r.nextSlot - 1
	r.failReadWaiters(smr.ErrNotLeader)

	for slot := from; slot < r.nextSlot; slot++ {
		if cmd, ok := r.decided[slot]; ok {
			// Already chosen: re-announce for the benefit of laggards.
			r.broadcast(KindDecide, encodeDecide(decideMsg{Slot: slot, Cmd: cmd}))
			continue
		}
		if slot <= maxFloor {
			continue // released after a checkpoint; never re-propose
		}
		if e, ok := best[slot]; ok {
			r.proposeAtSlot(slot, []types.Command{e.Cmd})
		} else {
			r.proposeAtSlot(slot, []types.Command{types.NoopCommand()})
		}
	}
	// Say so in the turn we win: a follower holding proposals forwards them as
	// soon as it knows where to, not a tick later.
	r.sendHeartbeat()
}

// proposeNext assigns cmds the next free slot and runs phase 2 for them. The
// slot counter is advanced before the local accept so the acceptor-side
// bookkeeping in acceptAccept cannot double-advance it.
func (r *Replica) proposeNext(cmds []types.Command) {
	slot := r.nextSlot
	r.nextSlot++
	r.proposeAtSlot(slot, cmds)
}

// proposeAtSlot runs phase 2 at slot under the current ballot for cmds: one
// command, or several that share the slot as a batch. The proposal is encoded
// once; the same bytes are this replica's acc/ record, the Accept every peer
// is sent and what the resend tick sends again.
func (r *Replica) proposeAtSlot(slot types.Slot, cmds []types.Command) {
	rec, e := encodeAccept(slot, r.ballot, cmds)
	sp := &slotProgress{cmd: e.Cmd, accept: rec}
	r.inflight[slot] = sp
	self := r.acceptAccept(e, rec) // local vote, persisted first
	r.broadcast(KindAccept, rec)
	if self.OK {
		r.countVote(slot, sp, r.self)
	}
}

// countVote records from's vote for the proposal at slot and decides the slot
// once a quorum has voted. Votes are a bit per member, in cfg.Members order.
func (r *Replica) countVote(slot types.Slot, sp *slotProgress, from types.NodeID) {
	for i, id := range r.cfg.Members {
		if id == from {
			sp.acks |= 1 << i
		}
	}
	r.maybeDecide(slot, sp)
}

func (r *Replica) onAccepted(from types.NodeID, msg acceptedMsg) {
	if r.role != roleLeader || !msg.Ballot.Equal(r.ballot) {
		return
	}
	if !msg.OK {
		if r.maxBallotSeen.Less(msg.Promised) {
			r.maxBallotSeen = msg.Promised
		}
		r.stepDown()
		return
	}
	sp, ok := r.inflight[msg.Slot]
	if !ok {
		return // already decided or cleaned up
	}
	r.countVote(msg.Slot, sp, from)
}

func (r *Replica) maybeDecide(slot types.Slot, sp *slotProgress) {
	if bits.OnesCount64(sp.acks) < r.cfg.Quorum() {
		return
	}
	delete(r.inflight, slot)
	// By reference: every acceptor that voted already holds the command, so
	// it crosses each link once (in the Accept) and each log once (acc/).
	r.broadcast(KindDecide, encodeDecide(decideMsg{Slot: slot, ByRef: true, Ballot: r.ballot}))
	if !r.learnAccepted(slot, r.ballot) {
		r.learn(decideMsg{Slot: slot, Cmd: sp.cmd}) // our own acceptor refused the round
	}
}

func (r *Replica) stepDown() {
	if r.role == roleLeader || r.role == roleCandidate {
		r.stats.stepDowns.Add(1)
	}
	r.role = roleFollower
	r.amLeader.Store(false)
	// Re-queue inflight commands: a new leader may or may not choose
	// them; session dedup upstairs makes the re-submission harmless.
	for _, sp := range r.inflight {
		r.enqueue(sp.cmd)
	}
	r.inflight = make(map[types.Slot]*slotProgress)
	r.promises = make(map[types.NodeID]promiseMsg)
	// A deposed leader must answer no more fast-path reads: fail the waiters
	// of its probe rounds (callers fall back to the log).
	r.failReadWaiters(smr.ErrNotLeader)
	r.resetElectionDeadline()
}

// --- learner role ------------------------------------------------------------

// learnAccepted records that the value this acceptor accepted at (slot,
// ballot) was chosen. It reports false, learning nothing, when the acceptor
// holds no entry for the slot at exactly that ballot.
func (r *Replica) learnAccepted(slot types.Slot, ballot types.Ballot) bool {
	e, ok := r.accepted[slot]
	if !ok || !e.Ballot.Equal(ballot) {
		return false
	}
	r.learn(decideMsg{Slot: slot, Cmd: e.Cmd, ByRef: true, Ballot: ballot})
	return true
}

// learn is the learner: d.Cmd is the chosen command, and d.ByRef says the
// local accepted entry at d.Ballot backs it (see persistDecided).
func (r *Replica) learn(d decideMsg) {
	slot, cmd := d.Slot, d.Cmd
	if slot <= r.truncatedBelow {
		// Already covered by an installed checkpoint and released; learning
		// it again would resurrect a record below the truncation floor.
		return
	}
	if sp, ok := r.inflight[slot]; ok {
		// The slot was chosen out of band — an old leader's decide
		// broadcast, a catch-up response, or an acceptor's already-decided
		// fast path in onAccept — so our own phase-2 round for it is moot.
		// The entry must be cleared here: nothing else removes it (the
		// acceptors keep answering KindDecide, never Accepted), and a few
		// such zombies would permanently fill the pipeline window and wedge
		// the proposer. If a different value won the slot, re-queue ours;
		// session dedup upstairs makes the re-submission harmless. The freed
		// window slot is refilled at the end of the turn.
		delete(r.inflight, slot)
		if !sp.cmd.Equal(cmd) {
			r.enqueue(sp.cmd)
		}
	}
	if prev, ok := r.decided[slot]; ok {
		if !prev.Equal(cmd) {
			// Two different decisions for one slot: agreement broken.
			r.stats.violations.Add(1)
		}
		return
	}
	r.decided[slot] = cmd
	r.persistDecided(d)
	r.stats.retained.Store(int64(len(r.decided)))
	if slot > r.maxDecidedSeen {
		r.maxDecidedSeen = slot
	}
	if slot >= r.nextSlot {
		r.nextSlot = slot + 1
	}
	r.deliverReady()
}

func (r *Replica) deliverReady() {
	for {
		cmd, ok := r.decided[r.deliverNext]
		if !ok {
			return
		}
		// Held until the turn's barrier: the leader's own accept is part of
		// the deciding quorum, and it is only staged until endBurst syncs.
		r.heldDecisions = append(r.heldDecisions, smr.Decision{Slot: r.deliverNext, Cmd: cmd})
		r.stats.decided.Add(1)
		r.deliverNext++
	}
}

// catchupBatch is the most decided entries one catch-up response carries: it
// bounds the frame, and a longer gap takes several round trips. 512 is also
// the composition layer's default checkpoint margin — the stretch of log kept
// below a checkpoint for exactly this kind of catch-up — so what is kept fits
// one response.
const catchupBatch = 512

func (r *Replica) onCatchupReq(from types.NodeID, msg catchupReqMsg) {
	// A request that starts at or below our truncation floor cannot be
	// served from the log — those slots were released after a checkpoint.
	// Serve what we still have above the floor and let the appended
	// TruncatedBelow field redirect the requester to the checkpoint.
	start := msg.From
	redirect := false
	if start <= r.truncatedBelow {
		redirect = true
		start = r.truncatedBelow + 1
	}
	to := msg.To
	if limit := start + catchupBatch - 1; to > limit {
		to = limit
	}
	resp := catchupRespMsg{Frontier: r.deliverNext - 1, TruncatedBelow: r.truncatedBelow}
	for slot := start; slot <= to; slot++ {
		if cmd, ok := r.decided[slot]; ok {
			resp.Entries = append(resp.Entries, decideMsg{Slot: slot, Cmd: cmd})
		}
	}
	if len(resp.Entries) > 0 || redirect {
		r.send(from, KindCatchupResp, encodeCatchupResp(resp))
	}
}

// --- proposals ----------------------------------------------------------------

// handlePropose admits one proposal to the queue and nothing else: which slot
// it rides in is decided once per loop turn (placePending), when everything
// that arrived with it has been admitted too.
func (r *Replica) handlePropose(cmd types.Command) {
	r.stats.proposals.Add(1)
	r.enqueue(cmd)
}

// pendingLimit caps the proposals queued for a leader or a pipeline slot. It
// equals the composition layer's default admission bound (SubmitQueue, 4096
// distinct client commands per node), which sheds with an explicit reply
// first; this one only catches what gets past it (re-proposals, forwards
// from several followers) and drops silently, for the proposer to retry.
const pendingLimit = 4096

// enqueue appends cmd to the proposal queue, dropping it when the queue is at
// pendingLimit (overload; clients retry). A batch — one this replica proposed
// and is taking back, or one a deposed leader forwards — goes in as its
// member commands: drainPending is the only place batches are built, so they
// stay one level deep, which is all the apply layer unpacks. Packed again as
// it is, a batch would reach the state machine as the bytes of a single op.
func (r *Replica) enqueue(cmd types.Command) {
	switch {
	case cmd.IsNoop():
	case cmd.Kind == types.CmdBatch:
		subs, err := types.DecodeBatch(cmd.Data)
		if err != nil {
			return // not a batch any replica built; nothing to recover
		}
		for _, sub := range subs {
			r.enqueue(sub)
		}
	case len(r.pending) < pendingLimit:
		r.pending = append(r.pending, cmd)
	}
}

// placePending moves the queue on at the end of a loop turn: into slots on
// a leader, to the leader on a follower that knows one. A candidate keeps it
// until the election settles.
func (r *Replica) placePending() {
	switch r.role {
	case roleLeader:
		r.drainPending()
	case roleFollower:
		r.flushPendingToLeader()
	}
}

// pipelineDepth is how many slots a leader keeps open at once when it drains
// its proposal queue. A deeper pipeline overlaps more accept rounds but
// spreads the queued commands over more, emptier slots, and every open slot
// costs a broadcast, a durable log record on every acceptor and a decision
// delivery — past a few slots that overhead wins. 4 is the winner of the W1
// pipeline-depth sweep on the durable WAL backend (EXPERIMENTS.md,
// "Historical tables").
const pipelineDepth = 4

// drainPending assigns queued proposals to slots while the pipeline window
// has room, packing up to batchSize commands per slot.
func (r *Replica) drainPending() {
	for r.role == roleLeader && len(r.pending) > 0 && len(r.inflight) < pipelineDepth {
		k := min(r.opts.batchSize, len(r.pending))
		cmds := r.pending[:k]
		r.pending = r.pending[k:]
		r.proposeNext(cmds)
	}
}

// flushPendingToLeader forwards queued proposals when we are a follower that
// knows the leader.
func (r *Replica) flushPendingToLeader() {
	if r.role != roleFollower || len(r.pending) == 0 {
		return
	}
	hint, _ := r.leaderHint.Load().(types.NodeID)
	if hint == "" || hint == r.self {
		return
	}
	// One frame for the whole queue (chunked so a huge backlog cannot
	// produce an oversized frame); encodeForward copies, so the pending
	// buffer can be reused immediately.
	for pend := r.pending; len(pend) > 0; {
		k := len(pend)
		if k > maxForwardBatch {
			k = maxForwardBatch
		}
		r.send(hint, KindForward, encodeForward(forwardMsg{Cmds: pend[:k]}))
		pend = pend[k:]
	}
	r.pending = r.pending[:0]
}

// maxForwardBatch caps how many queued commands ride in one forward frame.
const maxForwardBatch = 128

// --- heartbeats & timers --------------------------------------------------------

func (r *Replica) onHeartbeat(msg heartbeatMsg) {
	if msg.Ballot.Less(r.maxBallotSeen) {
		// Stale leader; still use its decided watermark for catch-up.
		if msg.Decided > r.maxDecidedSeen {
			r.maxDecidedSeen = msg.Decided
		}
		return
	}
	r.maxBallotSeen = msg.Ballot
	if (r.role == roleLeader || r.role == roleCandidate) && r.ballot.Less(msg.Ballot) {
		r.stepDown()
	}
	r.leaderHint.Store(msg.Ballot.Leader)
	r.ticksSinceHB = 0
	if msg.Decided > r.maxDecidedSeen {
		r.maxDecidedSeen = msg.Decided
	}
}

// sendHeartbeat broadcasts the leader's beacon and restarts its countdown.
func (r *Replica) sendHeartbeat() {
	r.hbCountdown = heartbeatEveryTicks
	r.broadcast(KindHeartbeat, encodeHeartbeat(heartbeatMsg{Ballot: r.ballot, Decided: r.deliverNext - 1}))
}

// The engine's timing, in ticks of Options.TickInterval. A leader beacons
// every heartbeatEveryTicks; a follower that hears nothing for
// electionTimeoutTicks plus a uniform draw from [0, electionJitterTicks]
// competes for leadership, the jitter keeping proposers from duelling.
// resendTicks is how long a candidate or leader waits for an answer before it
// sends a prepare, accept or read probe again: several round trips on every
// fabric the engine runs on (a tick is at least 1 ms) and half the election
// timeout, so one lost message costs a retransmission, not an election.
const (
	heartbeatEveryTicks  = 2
	electionTimeoutTicks = 10
	electionJitterTicks  = 10
	resendTicks          = 5
)

func (r *Replica) tick() {
	switch r.role {
	case roleLeader:
		r.hbCountdown--
		if r.hbCountdown <= 0 {
			r.sendHeartbeat()
		}
		if pr := r.curProbe; pr != nil {
			pr.age++
			if pr.age >= resendTicks {
				pr.age = 0
				r.broadcast(KindReadProbe, encodeReadProbe(readProbeMsg{Ballot: r.ballot, Seq: pr.seq}))
			}
		}
		for _, sp := range r.inflight {
			sp.sinceTicks++
			if sp.sinceTicks >= resendTicks {
				sp.sinceTicks = 0
				r.broadcast(KindAccept, sp.accept)
			}
		}
	case roleCandidate:
		r.prepareAge++
		if r.prepareAge >= resendTicks {
			r.prepareAge = 0
			r.broadcast(KindPrepare, encodePrepare(prepareMsg{Ballot: r.ballot, From: r.stableNext}))
		}
		r.ticksSinceHB++
		if r.ticksSinceHB >= r.electionDeadline {
			r.startElection() // new, higher ballot
		}
	default: // follower
		r.ticksSinceHB++
		if r.ticksSinceHB >= r.electionDeadline {
			r.startElection()
		}
	}

	// Catch-up: if we know of decided slots beyond our contiguous prefix,
	// ask a peer for the hole.
	r.catchupCooldown--
	if r.catchupCooldown <= 0 && r.maxDecidedSeen >= r.deliverNext {
		r.catchupCooldown = 2
		target := r.pickCatchupPeer()
		if target != "" {
			r.stats.catchups.Add(1)
			req := catchupReqMsg{From: r.deliverNext, To: r.maxDecidedSeen}
			r.send(target, KindCatchupReq, encodeCatchupReq(req))
		}
	}
}

func (r *Replica) pickCatchupPeer() types.NodeID {
	if hint, _ := r.leaderHint.Load().(types.NodeID); hint != "" && hint != r.self {
		return hint
	}
	others := r.cfg.Others(r.self)
	if len(others) == 0 {
		return ""
	}
	return others[r.rng.Intn(len(others))]
}
