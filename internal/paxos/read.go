package paxos

import (
	"repro/internal/smr"
	"repro/internal/types"
)

// This file implements the linearizable read fast path: read-index rounds.
// One quorum round confirms leadership and is shared by every read that
// arrived while the round was pending. Nothing here reads a clock, so the
// path is safe under any clock-rate skew.
//
// Safety of the read index: the index returned for a read is
//
//	max(electionFloor, deliverNext-1, maxDecidedSeen)
//
// where electionFloor is nextSlot-1 captured at becomeLeader. Any command
// chosen before this leader's election was accepted by a quorum that
// intersects the promise quorum, so it appears in some promise and is below
// electionFloor; any command this leader chose afterwards is learned locally
// at the moment of decision and so is covered by deliverNext/maxDecidedSeen.
// The probe round then establishes that no higher ballot had been promised
// by a quorum member at ack time: a fully elected newer leader must have
// finished its election after those acks, so its writes began after the
// read was invoked and need not be visible to it.

// readRequest is one fast-path read awaiting a leadership confirmation.
type readRequest struct {
	done func(index types.Slot, err error)
}

// probeRound is one in-flight read-index confirmation round. Reads that
// arrive while a round is outstanding queue for the next round; a round's
// index is fixed at dispatch, which is at or after every joined read's
// invocation, so it covers all commands chosen before any of them started.
type probeRound struct {
	seq     uint64
	index   types.Slot
	acks    map[types.NodeID]bool
	waiters []func(index types.Slot, err error)
	age     int
}

var _ smr.ReadIndexer = (*Replica)(nil)

// ReadIndex implements smr.ReadIndexer. The callback fires exactly once,
// possibly synchronously; it runs on the engine's event loop goroutine and
// must not block.
func (r *Replica) ReadIndex(done func(index types.Slot, err error)) error {
	if !r.started.Load() {
		return smr.ErrStopped
	}
	select {
	case <-r.stopCh:
		return smr.ErrStopped
	default:
	}
	if !r.reads.TryPut(readRequest{done: done}) {
		return ErrBusy
	}
	// The loop may have exited between the stop check and the put, leaving
	// the request stranded in the queue. Every queued request is taken from
	// it exactly once — by the loop, by the loop's shutdown drain, or here —
	// so each done still runs exactly once.
	select {
	case <-r.loopDone:
		r.failBufferedReads()
	default:
	}
	return nil
}

// failBufferedReads empties the read queue and fails whatever it takes. Only
// called once the event loop is guaranteed not to be consuming the queue.
func (r *Replica) failBufferedReads() {
	for _, req := range r.reads.Take(nil, readLimit) {
		req.done(0, smr.ErrStopped)
	}
}

// finishReads fails every read the loop still owes an answer. It runs as the
// loop goroutine's last deferred call, after loopDone is closed, so that any
// ReadIndex racing with shutdown either sees loopDone closed (and drains the
// queue itself) or enqueued before this drain.
func (r *Replica) finishReads() {
	r.failReadWaiters(smr.ErrStopped)
	r.failBufferedReads()
}

// failReadWaiters aborts the in-flight probe round and the queued next
// round. Called on step-down, on election (defensively) and at shutdown.
func (r *Replica) failReadWaiters(err error) {
	if pr := r.curProbe; pr != nil {
		r.curProbe = nil
		for _, done := range pr.waiters {
			done(0, err)
		}
	}
	for _, done := range r.nextReads {
		done(0, err)
	}
	r.nextReads = nil
}

// readIndexNow computes the slot every command chosen before "now" is at or
// below. See the file comment for the safety argument.
func (r *Replica) readIndexNow() types.Slot {
	idx := r.electionFloor
	if d := r.deliverNext - 1; d > idx {
		idx = d
	}
	if r.maxDecidedSeen > idx {
		idx = r.maxDecidedSeen
	}
	return idx
}

// handleRead is the loop-side entry for one fast-path read.
func (r *Replica) handleRead(req readRequest) {
	if r.role != roleLeader {
		req.done(0, smr.ErrNotLeader)
		return
	}
	r.nextReads = append(r.nextReads, req.done)
	if r.curProbe == nil {
		r.dispatchProbe()
	}
}

// dispatchProbe starts a confirmation round for all queued reads.
func (r *Replica) dispatchProbe() {
	if len(r.nextReads) == 0 || r.role != roleLeader {
		return
	}
	r.probeSeq++
	pr := &probeRound{
		seq:     r.probeSeq,
		index:   r.readIndexNow(),
		acks:    map[types.NodeID]bool{r.self: true},
		waiters: r.nextReads,
	}
	r.nextReads = nil
	r.curProbe = pr
	r.broadcast(KindReadProbe, encodeReadProbe(readProbeMsg{Ballot: r.ballot, Seq: pr.seq}))
	r.maybeFinishProbe() // a single-member configuration is its own quorum
}

func (r *Replica) maybeFinishProbe() {
	pr := r.curProbe
	if pr == nil || len(pr.acks) < r.cfg.Quorum() {
		return
	}
	r.curProbe = nil
	for _, done := range pr.waiters {
		done(pr.index, nil)
	}
	r.dispatchProbe() // serve reads that queued during the round
}

// onReadProbe is the acceptor side of a confirmation round: ack OK iff we
// are not bound to a ballot above the probe's.
func (r *Replica) onReadProbe(from types.NodeID, msg readProbeMsg) {
	if r.maxBallotSeen.Less(msg.Ballot) {
		r.maxBallotSeen = msg.Ballot
	}
	if (r.role == roleLeader || r.role == roleCandidate) && r.ballot.Less(msg.Ballot) {
		r.stepDown()
	}
	ok := !msg.Ballot.Less(r.promised)
	r.send(from, KindReadProbeAck, encodeReadProbeAck(readProbeAckMsg{
		Ballot: msg.Ballot, Seq: msg.Seq, OK: ok, Promised: r.promised,
	}))
}

func (r *Replica) onReadProbeAck(from types.NodeID, msg readProbeAckMsg) {
	if r.role != roleLeader || !msg.Ballot.Equal(r.ballot) {
		return
	}
	if !msg.OK {
		if r.maxBallotSeen.Less(msg.Promised) {
			r.maxBallotSeen = msg.Promised
		}
		r.stepDown() // fails all read waiters
		return
	}
	pr := r.curProbe
	if pr == nil || msg.Seq != pr.seq {
		return
	}
	pr.acks[from] = true
	r.maybeFinishProbe()
}
