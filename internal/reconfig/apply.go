package reconfig

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/smr"
	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/types"
)

// applyLoop is the node's one loop. It alone takes decisions from an engine —
// the current configuration's, and only while that configuration is installed
// here — and executes them in decided order, and it runs the node's periodic
// tick (houseTick). Once Start has returned it alone assigns the machine, the
// current configuration, whether it is installed and the apply cursor, the
// chain, the configurations and the engine runs, and it alone starts and
// retires engines. It alone touches the machine, the pending commands and the
// parked reads: every client command and every fast read's index reaches it
// through its mailbox, and so does what another goroutine learns that changes
// the node's state (a chain record from a peer, a fetched snapshot's install;
// onLoop). The mailbox is drained whole at the top of every round, in arrival
// order, never while a segment executes, so no round's work is overtaken.
// Every other engine keeps what it decides, as smr.Engine allows: a
// speculative successor until its state is installed, a wedged predecessor
// until it is retired.
//
// A round drains the mailbox and collects a run of taken decisions under
// n.mu, releases the mutex, executes them, and reacquires n.mu only to
// commit: advance the apply cursor, answer waiting clients, serve parked
// reads. Inspectors do not contend with execution.
func (n *Node) applyLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(retryInterval)
	defer ticker.Stop()
	for {
		units, run := n.collectRound()
		if len(units) > 0 {
			n.executeRound(units)
			select {
			case <-ticker.C: // a loop that never idles still ticks
				n.houseTick()
			default:
			}
			continue
		}
		var decs <-chan smr.Decision
		if run != nil {
			decs = run.eng.Decisions()
		}
		select {
		case <-n.stopCh:
			return
		case <-ticker.C:
			n.houseTick()
		case <-n.mailbox.Wake():
		case d, ok := <-decs:
			// The installed configuration's engine is stopped only by Stop,
			// which closes stopCh first.
			if ok {
				run.buffered = append(run.buffered, d)
			}
		}
	}
}

// mailboxLimit bounds the loop's mailbox. A client command that finds it full
// is dropped, as a lost frame is, and the client's retry covers it (an
// in-process Submit fails with ErrBusy); a fast read's index is answered
// SubmitBusy instead (tryFastReadLocked); work posted by onLoop waits for
// room.
const mailboxLimit = 16384

// loopMsg is one entry of the loop's mailbox: work posted by onLoop (f), a
// client command to admit (cmd, respond), or a fast read of cmd whose engine
// has answered (readCfg, the configuration it was classified in, is set;
// index and err are the answer).
type loopMsg struct {
	f       func()
	cmd     types.Command
	respond func([]byte)
	readCfg types.ConfigID
	index   types.Slot
	err     error
}

// post hands f to the apply loop, which runs it under n.mu between two
// rounds, in arrival order; false means the node stopped first. It waits only
// for room in the mailbox. The caller holds no lock and is not the loop.
func (n *Node) post(f func()) bool { return n.mailbox.Put(loopMsg{f: f}, n.stopCh) }

// onLoop posts f to the apply loop and waits until the loop has run it; false
// means the node stopped first.
func (n *Node) onLoop(f func()) bool {
	done := make(chan struct{})
	if !n.post(func() { f(); close(done) }) {
		return false
	}
	select {
	case <-done:
		return true
	case <-n.stopCh:
		return false
	}
}

// drainMailboxLocked runs, in arrival order, all that the mailbox holds. The
// client commands of one drain are proposed back to back, so the engine takes
// a clump that left a client together as one. Caller holds mu, on the loop.
func (n *Node) drainMailboxLocked() {
	n.taken = n.mailbox.Take(n.taken[:0], mailboxLimit)
	for _, m := range n.taken {
		switch {
		case m.f != nil:
			m.f()
		case m.readCfg != 0:
			n.completeReadLocked(m)
		default:
			n.admitLocked(m.cmd, m.respond)
		}
	}
	clear(n.taken) // drop the commands and callbacks the buffer holds
}

// admitLocked serves one client command: a redirect when this node cannot
// take it, the recorded reply of an executed duplicate, a fast read, or
// admission into the pending commands and a proposal into the current
// engine. Caller holds mu, on the loop.
func (n *Node) admitLocked(cmd types.Command, respond func([]byte)) {
	if n.stopped || cmd.Kind != types.CmdApp || cmd.Client == "" || cmd.Seq == 0 {
		return // malformed; client library never sends this
	}
	if !n.configs[n.curID].IsMember(n.self) || !n.initialized && !n.speculationOn() {
		respond(n.redirectReplyLocked())
		return
	}
	// An uninitialized member is accepting speculatively: its snapshot is
	// still in flight, but its engine can already order commands. The reply
	// stays parked until the install's apply answers it, and session dedup
	// squashes commands the snapshot already contains; dedup and fast reads
	// need the machine state it does not have yet. Without this a full member
	// replacement has no one to propose to until the first install completes —
	// exactly the window speculation exists to close.
	if n.initialized {
		if cmd.Seq <= n.machine.LastSeq(cmd.Client) {
			reply, _ := n.machine.ApplyCommand(cmd) // dedup path: no mutation
			respond(n.appliedReplyLocked(reply))
			return
		}
		if n.tryFastReadLocked(cmd, respond) {
			return
		}
	}
	if !n.admitSubmitLocked(cmd) {
		respond(n.busyReplyLocked())
		return
	}
	n.enqueueSubmitLocked(cmd, respond)
}

// admitSubmitLocked decides whether a client command may join the pending
// proposal queue — the admission control gate. A retry of an already-admitted
// command always passes (it only attaches another waiter); past the bound,
// new commands are shed. Only opSubmit traffic ever reaches this gate:
// reconfigurations, chain records, announces and state transfer have their
// own op codes, so control-plane progress is never queued behind client load.
func (n *Node) admitSubmitLocked(cmd types.Command) bool {
	if _, ok := n.pending[pendKey{client: cmd.Client, seq: cmd.Seq}]; ok {
		return true
	}
	if len(n.pending) < n.opts.SubmitQueue {
		return true
	}
	n.stats.ShedSubmits++
	n.warnShed()
	return false
}

// busyReplyLocked builds the SubmitBusy shed reply. RetryAfter is the
// tick interval: by then the node has re-proposed its backlog at
// least once, so the queue has had a real chance to drain.
func (n *Node) busyReplyLocked() []byte {
	return EncodeSubmitResult(SubmitResult{
		Status:     SubmitBusy,
		Config:     n.configs[n.curID],
		Leader:     n.leaderHintLocked(),
		RetryAfter: retryInterval,
	})
}

// enqueueSubmitLocked registers a pending waiter for cmd and proposes it
// into the current engine — the ordinary log path for writes and for reads
// that could not use the fast path.
func (n *Node) enqueueSubmitLocked(cmd types.Command, respond func([]byte)) {
	key := pendKey{client: cmd.Client, seq: cmd.Seq}
	p, ok := n.pending[key]
	if !ok {
		p = &pendingCmd{cmd: cmd}
		// The proposal below is try zero, so the backoff clock starts here: a
		// zero nextRetry would have the very next tick re-propose
		// a command that is merely in flight. The extra tick covers the
		// current one, which is already partly spent.
		n.armRetryLocked(p)
		p.nextRetry++
		n.pending[key] = p
		if depth := int64(len(n.pending)); depth > n.stats.SubmitQueueHigh {
			n.stats.SubmitQueueHigh = depth
		}
	}
	p.responders = append(p.responders, respond)
	if run, ok := n.engines[n.curID]; ok {
		_ = run.eng.Propose(cmd) // the tick re-proposes on loss
	}
}

// maxApplyUnits bounds how many commands one round executes before
// recommitting, so a deep decision backlog cannot keep the mailbox — client
// commands, fast reads, a handed-over install — waiting unboundedly.
const maxApplyUnits = 1024

// applyUnit is one flattened command: batches are exploded into their
// members, all carrying the batch's slot.
type applyUnit struct {
	slot types.Slot
	cmd  types.Command
}

// collectRound is the first, locked half of a round. It drains the mailbox,
// takes what the installed configuration's channel holds into its head, and
// pops the round's units off the head. run is the installed configuration's
// engine run, nil when none is.
func (n *Node) collectRound() (units []applyUnit, run *engineRun) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.drainMailboxLocked()
	if run = n.engines[n.curID]; run == nil || !n.initialized {
		n.serveReadyReadsLocked()
		return nil, nil
	}
	// The loop is the channel's only receiver, so what it holds now is there
	// to take without waiting, closed or not.
	decs := run.eng.Decisions()
	for range len(decs) {
		run.buffered = append(run.buffered, <-decs)
	}
	if len(run.buffered) > 0 {
		// Decided and not yet applied: the head, and all that speculative
		// successors' engines have delivered.
		parked := int64(len(run.buffered))
		for id, r := range n.engines {
			if id > n.curID {
				parked += int64(r.eng.Progress().Delivered)
			}
		}
		n.stats.ApplyQueueHighWater = max(n.stats.ApplyQueueHighWater, parked)
	}
	if units = n.collectReadyLocked(run, maxApplyUnits); len(units) == 0 {
		n.serveReadyReadsLocked()
	}
	return units, run
}

// executeRound executes a collected round segment by segment: a maximal run
// of ordinary commands is applied off-mutex, one command at a time on this
// goroutine; each reconfiguration executes alone under the mutex. The
// segment's last command has returned before the next unit starts, so every
// preceding mutation is complete before a wedge forks the snapshot (the
// wedge-drain rule). A wedge ends the round: the units after it are
// post-wedge, and the composition rule does not apply them here.
func (n *Node) executeRound(units []applyUnit) {
	i := 0
	for i < len(units) {
		if units[i].cmd.Kind == types.CmdReconfig {
			lastOfSlot := i+1 >= len(units) || units[i+1].slot != units[i].slot
			if n.applyReconfigUnit(units[i], lastOfSlot) {
				return
			}
			i++
			continue
		}
		j := i + 1
		for j < len(units) && units[j].cmd.Kind != types.CmdReconfig {
			j++
		}
		// Commit cursor: the last slot all of whose units are in this
		// segment. A reconfiguration in the same slot (mid-batch wedge)
		// means the slot is only partially executed here.
		commit := units[j-1].slot
		if j < len(units) && units[j].slot == units[j-1].slot {
			commit = units[j-1].slot - 1
		}
		n.applySegment(units[i:j], commit)
		i = j
	}
}

// collectReadyLocked pops the contiguous run of ready decisions off run's
// head and flattens batches into applyUnits, up to the log bound: the slots
// past it are post-wedge. Stale redeliveries — slots an installed snapshot
// already covers — are skipped; a slot gap is an invariant violation (the
// engine contract is gap-free in-order delivery).
func (n *Node) collectReadyLocked(run *engineRun, max int) (units []applyUnit) {
	cursor, bound := n.appliedSlot, n.logBoundLocked()
	for len(units) < max && len(run.buffered) > 0 && (bound == 0 || cursor < bound) {
		dec := run.buffered[0]
		run.buffered = run.buffered[1:]
		if dec.Slot != cursor+1 {
			if dec.Slot > cursor {
				n.stats.InvariantViolations++
			}
			continue
		}
		cursor = dec.Slot
		if dec.Cmd.Kind == types.CmdBatch {
			subs, err := types.DecodeBatch(dec.Cmd.Data)
			if err != nil {
				// A leader produced a corrupt batch; consume the slot so
				// the cursor still advances.
				n.stats.InvariantViolations++
				units = append(units, applyUnit{slot: dec.Slot, cmd: types.Command{Kind: types.CmdNoop}})
				continue
			}
			for _, sub := range subs {
				units = append(units, applyUnit{slot: dec.Slot, cmd: sub})
			}
			continue
		}
		units = append(units, applyUnit{slot: dec.Slot, cmd: dec.Cmd})
	}
	return units
}

// applyReconfigUnit executes one reconfiguration command under the mutex and
// reports whether the configuration transitioned, in which case the caller
// drops the rest of its round. A deterministically invalid reconfiguration is
// a no-op and the round goes on; the apply cursor only advances when this is
// the slot's final unit, so a parked read can never be served against a
// half-applied slot.
func (n *Node) applyReconfigUnit(u applyUnit, lastOfSlot bool) (wedged bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	before := n.curID
	if lastOfSlot {
		n.appliedSlot = u.slot
	}
	// A deterministically invalid one (a stale ID from a racing proposer, or
	// corrupt) is a no-op at every replica.
	if newCfg, err := types.DecodeConfig(u.cmd.Data); err == nil && newCfg.ID == n.curID+1 {
		n.wedgeLocked(u.slot, newCfg)
	} else {
		n.wedgeAtBoundLocked()
	}
	n.serveReadyReadsLocked()
	return n.curID != before || !n.initialized
}

// applySegment applies a run of ordinary commands to the machine in decided
// order with the node mutex released, then reacquires it to commit. Only this
// goroutine reads or replaces the machine, so nothing can observe a
// half-applied segment.
func (n *Node) applySegment(seg []applyUnit, commit types.Slot) {
	replies := make([][]byte, len(seg))
	dups := make([]bool, len(seg))
	for k := range seg {
		replies[k], dups[k] = n.machine.ApplyCommand(seg[k].cmd)
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	if commit > n.appliedSlot {
		n.appliedSlot = commit
	}
	for k := range seg {
		cmd := seg[k].cmd
		n.stats.Applied++
		if dups[k] {
			n.stats.Duplicates++
		}
		if cmd.Client == "" {
			continue
		}
		key := pendKey{client: cmd.Client, seq: cmd.Seq}
		if p, pok := n.pending[key]; pok {
			delete(n.pending, key)
			n.respondApplied(p, replies[k])
		}
	}
	// Before mu goes: a client answered here submits its next command to the
	// successor, not to a log that has ended.
	n.wedgeAtBoundLocked()
	n.serveReadyReadsLocked()
}

// installLocked adopts fresh, a machine built from a complete snapshot, as
// the state of configuration id at slot 0: a joiner's initial state, a
// lagging member's after a stale jump, or what Start found in the node's own
// store. It runs on the apply loop (handed over by install) or in Start
// before the loop exists, and only on a node without state: an initialized
// node holds id's state already. Reports whether the install happened.
// Caller holds mu.
func (n *Node) installLocked(id types.ConfigID, fresh *statemachine.Sessioned) bool {
	if n.stopped || n.curID != id || n.initialized {
		return false
	}
	n.machine = fresh
	n.initialized = true
	n.appliedSlot = 0
	n.snapDurable = max(n.snapDurable, id)
	if err := n.ensureEngineLocked(id); err != nil {
		n.stats.InvariantViolations++
	}
	n.stats.SnapshotsFetched++
	// What a speculative engine decided during the transfer stayed in it;
	// the loop takes it from here.
	n.stats.SpeculativeParked += n.takeOverLocked(id)
	n.resubmitPendingLocked(true)
	n.notifyTransitionLocked()
	return true
}

// recoverMachine recovers the machine from a snapshot, a configuration's
// state at slot 0, through the same install a fetched snapshot takes; the
// engines' redelivered logs replay the rest. It takes the current
// configuration's snapshot when the store holds it whole. When the store holds
// no readable manifest of it — power was lost after a wedge's chain record
// became durable and before the successor's snapshot did — it walks back to
// the newest predecessor whose snapshot is whole, as long as this node was a
// member of every configuration it steps back over and still holds their
// engine namespaces: its own logs then replay the node through the wedges to
// the current configuration, and retire keeps what this walk needs
// (retireLocked). A manifest with a partial chunk set (crashed mid-transfer),
// a chunk set that does not decode, or nothing to walk back to leaves the node
// uninitialized in the current configuration, and the transfer goroutine
// fetches what is missing. The loop does not run yet, so the install happens
// in place.
func (n *Node) recoverMachine(cur types.ConfigID) error {
	for id := cur; ; id-- {
		m, chunks, complete, err := storage.ReadChunked(n.store, snapPrefix(id))
		switch {
		case err != nil && id != 0 && id == n.initConfig.ID:
			// A corrupt manifest must not brick the node. The bootstrap
			// configuration starts from the empty machine and its log is
			// whole from slot 1, so replay reproduces the state.
			log.Printf("reconfig: %s snapshot of cfg %d unreadable (%v); replaying from the empty machine", n.self, id, err)
			n.mu.Lock()
			n.curID, n.initialized = id, true
			n.mu.Unlock()
			return nil
		case err == nil && m.Base > 0:
			// A mid-log checkpoint of an older version: the log below it is gone.
			return fmt.Errorf("%w: snapshot of configuration %d at slot %d", smr.ErrOldLayout, id, m.Base)
		case err == nil && m.Chunks() > 0 && !complete:
			// A transfer stages the manifest first, a publish last: a fetch
			// was under way, and the transfer goroutine takes it up.
			return nil
		case err == nil && m.Chunks() > 0:
			fresh, err := n.buildMachine(m, chunks)
			n.mu.Lock()
			defer n.mu.Unlock()
			if err != nil {
				n.stats.InvariantViolations++
				return nil
			}
			if id != cur {
				log.Printf("reconfig: %s has no whole snapshot of cfg %d; replaying its logs from cfg %d", n.self, cur, id)
			}
			n.curID = id
			n.installLocked(id, fresh)
			return nil
		}
		n.mu.Lock()
		prev := id - 1
		_, wedged := n.chain[prev]
		replayable := wedged && prev >= n.discardNext && n.configs[prev].IsMember(n.self)
		n.mu.Unlock()
		if !replayable {
			return nil
		}
	}
}

// takeOverLocked makes configuration id's engine run the loop's to take
// from, now that its state is installed here, and returns how many decisions
// its engine delivered before: they were decided speculatively and are
// counted in SpeculativeDecides. Caller holds mu.
func (n *Node) takeOverLocked(id types.ConfigID) int64 {
	run, ok := n.engines[id]
	if !ok || run.installed {
		return 0
	}
	run.installed = true
	spec := int64(run.eng.Progress().Delivered)
	n.stats.SpeculativeDecides += spec
	return spec
}

// jumpLocked moves the node's execution cursor to configuration id without
// local state (a fetch must follow if we are a member): a spare or retired
// node adopting an announced successor, or a stale jump. It runs on the apply
// loop. The old configuration's run stays until the tick retires it, and a
// running transfer is cancelled. Caller holds mu.
func (n *Node) jumpLocked(id types.ConfigID) {
	if run, ok := n.engines[n.curID]; ok {
		run.buffered = nil
	}
	if n.transferCancel != nil {
		n.transferCancel() // its snapshot is of a configuration the node leaves
	}
	n.curID = id
	n.appliedSlot = 0
	n.initialized = false
	cfg := n.configs[id]
	if cfg.IsMember(n.self) {
		if n.speculationOn() {
			if err := n.ensureEngineLocked(id); err != nil {
				n.stats.InvariantViolations++
			}
		}
		n.maybeTransferLocked()
	} else {
		n.redirectAllPendingLocked()
	}
	n.serveReadyReadsLocked()
	n.notifyTransitionLocked()
}

// respondApplied answers every RPC waiter attached to a pending command.
func (n *Node) respondApplied(p *pendingCmd, reply []byte) {
	if len(p.responders) == 0 {
		return
	}
	resp := n.appliedReplyLocked(reply)
	for _, respond := range p.responders {
		respond(resp)
	}
}

// appliedReplyLocked builds the SubmitApplied reply carrying reply.
func (n *Node) appliedReplyLocked(reply []byte) []byte {
	return EncodeSubmitResult(SubmitResult{
		Status: SubmitApplied,
		Reply:  reply,
		Config: n.configs[n.curID],
		Leader: n.leaderHintLocked(),
	})
}

func (n *Node) leaderHintLocked() types.NodeID {
	if run, ok := n.engines[n.curID]; ok {
		hint, _ := run.eng.Leader()
		return hint
	}
	return ""
}

// logBoundLocked is the slot at which every configuration's log ends, 0 when
// the bound is off (Options.NoCheckpoints). Caller holds mu.
func (n *Node) logBoundLocked() types.Slot {
	if n.opts.NoCheckpoints {
		return 0
	}
	return types.Slot(n.opts.logBound)
}

// wedgeAtBoundLocked ends the current configuration once the apply cursor
// has reached the log bound with no decided reconfiguration before it: every
// member does the same at the same slot, after the slot's whole batch, so the
// successor — ID+1, the same members — is the one every log would have
// chosen, and P2 holds as for any wedge. This is log compaction: the
// successor starts a fresh log from the wedge-time state, and the old log is
// discarded whole once its run retires. Caller holds mu, on the loop.
func (n *Node) wedgeAtBoundLocked() {
	if bound := n.logBoundLocked(); !n.initialized || bound == 0 || n.appliedSlot < bound {
		return
	}
	next, err := types.NewConfig(n.curID+1, n.configs[n.curID].Members)
	if err != nil {
		n.stats.InvariantViolations++
		return
	}
	before := n.curID
	n.wedgeLocked(n.appliedSlot, next)
	if n.curID != before {
		n.stats.CheckpointsPublished++
	}
}

// wedgeLocked performs the wedge transition: configuration curID is wedged at
// slot, its state becomes newCfg's initial state, and the successor engine
// takes over.
func (n *Node) wedgeLocked(slot types.Slot, newCfg types.Config) {
	rec := ChainRecord{
		From:        n.curID,
		FromMembers: n.configs[n.curID].Members,
		WedgeSlot:   slot,
		To:          newCfg,
	}
	if n.recordLocked(rec) {
		return
	}
	n.stats.Wedges++

	// The machine state at the wedge IS the successor's initial state:
	// publish it at base 0. Only the copy-on-write fork (O(shards)) runs
	// under n.mu; from here until the commit reports its end, retire leaves
	// the snapshot alone.
	n.serving[newCfg.ID] = &snapServing{committing: true}
	n.wg.Add(1)
	go n.publish(newCfg.ID, n.machine.ForkSnapshot())

	// The old engine lingers for laggards until the tick retires it. What the
	// round took past the wedge is dropped with its head, and what the engine
	// decides after it stays there.
	if run, ok := n.engines[rec.From]; ok {
		run.buffered = nil
	}

	n.curID = newCfg.ID
	n.appliedSlot = 0

	// Tell the successor's members (the new ones cannot discover the
	// configuration through their own logs).
	n.announceLocked(rec)

	if newCfg.IsMember(n.self) {
		// We hold the state already: activate immediately; the engine
		// starts speculatively regardless of the snapshot (it is local).
		if err := n.ensureEngineLocked(newCfg.ID); err != nil {
			n.stats.InvariantViolations++
		}
		n.takeOverLocked(newCfg.ID)
		// initialized stays true: machine == initial state of newCfg.
		n.resubmitPendingLocked(true)
	} else {
		// We are retired. Redirect every waiting client to the new
		// configuration and stop executing.
		n.initialized = false
		n.redirectAllPendingLocked()
	}
	n.notifyTransitionLocked()
}

// announceLocked broadcasts the chain record to the successor's members.
// Best-effort: gossip and discovery RPCs cover losses.
func (n *Node) announceLocked(rec ChainRecord) {
	body := encodeAnnounce(announceMsg{Record: rec})
	for _, m := range rec.To.Members {
		if m == n.self {
			continue
		}
		n.sendAnnounce(m, body)
	}
}

// resubmitPendingLocked re-proposes pending commands into the current
// configuration's engine. Session dedup makes duplicates harmless. Each
// command backs off exponentially (with jitter) across ticks so a stalled
// configuration is not hammered every tick; force resets the backoff and
// re-proposes everything immediately — used on configuration transitions,
// where the fresh engine deserves an instant try.
func (n *Node) resubmitPendingLocked(force bool) {
	run, ok := n.engines[n.curID]
	if !ok {
		return
	}
	for key, p := range n.pending {
		if force {
			p.backoff = 0
		} else if n.tick < p.nextRetry {
			continue
		}
		p.tries++
		if p.tries > pendingMaxRetries {
			delete(n.pending, key)
			continue
		}
		n.stats.Resubmits++
		_ = run.eng.Propose(p.cmd) // best effort; a later tick retries
		n.armRetryLocked(p)
	}
}

// armRetryLocked starts p's backoff clock at a proposal made now: the next
// re-proposal by the tick is one jittered step away, and the step doubles.
func (n *Node) armRetryLocked(p *pendingCmd) {
	step := int64(1) << p.backoff
	if p.backoff < 4 { // cap at 16 ticks between re-proposals
		p.backoff++
	}
	p.nextRetry = n.tick + step + n.rng.Int63n(step+1)
}

// redirectAllPendingLocked answers every waiting client with a redirect to
// the current configuration.
func (n *Node) redirectAllPendingLocked() {
	resp := EncodeSubmitResult(SubmitResult{
		Status: SubmitRedirect,
		Config: n.configs[n.curID],
		Leader: "",
	})
	for key, p := range n.pending {
		for _, respond := range p.responders {
			respond(resp)
		}
		delete(n.pending, key)
	}
}

// recordLocked adds rec to the chain and the configurations, staging it if it
// is new, and reports a fork: a second successor of one configuration, which
// agreement inside the engine forbids, is counted and not adopted. The record
// is staged with no barrier of its own: this node acts in the successor only
// through its engine, whose first barrier covers the record, or through a
// snapshot commit or transfer, whose barriers do too; one lost before any of
// them is redelivered by its configuration's log or relearned by gossip.
// Caller holds mu, on the loop.
func (n *Node) recordLocked(rec ChainRecord) (fork bool) {
	prev, ok := n.chain[rec.From]
	if ok && !prev.Equal(rec) {
		n.stats.InvariantViolations++
		return true
	}
	if !ok {
		n.chain[rec.From] = rec
		if err := n.store.SetBuffered(chainKey(rec.From), encodeChainRecord(rec)); err != nil {
			n.stats.InvariantViolations++
		}
	}
	n.configs[rec.To.ID] = rec.To
	return false
}

// handleAnnounce integrates a chain record a peer announced (learnChain).
func (n *Node) handleAnnounce(rec ChainRecord) { n.learnChain(types.Config{}, rec) }

// learnChain integrates chain records learned from peers — an announce, or a
// peer's chain and initial configuration pulled by gossip — on the apply loop
// and returns once it has, so from then on they fence reads. For each record
// it starts the successor's engine speculatively if this node belongs to it,
// and jumps straight to the successor when the node is not executing an older
// configuration; an executing member waits for its own log to deliver the
// wedge, or for the stale jump.
func (n *Node) learnChain(initial types.Config, recs ...ChainRecord) {
	n.onLoop(func() {
		if _, ok := n.configs[initial.ID]; initial.ID != 0 && !ok {
			n.configs[initial.ID] = initial
		}
		for _, rec := range recs {
			if n.stopped || n.recordLocked(rec) {
				continue
			}
			if rec.To.IsMember(n.self) && n.speculationOn() {
				if err := n.ensureEngineLocked(rec.To.ID); err != nil {
					n.stats.InvariantViolations++
				}
			}
			if rec.To.ID > n.curID && !(n.initialized && n.configs[n.curID].IsMember(n.self)) {
				n.jumpLocked(rec.To.ID)
			}
		}
		n.serveReadyReadsLocked()
	})
}

// ensureEngineLocked creates and starts the engine for configuration id if
// this node is a member and it is not already running. It refuses a
// configuration older than the current one: its run is retired or was never
// needed, and gossip replays every record, so rebuilding its engine from the
// store would restart it every gossip round. Caller holds mu, on the loop or
// in Start.
func (n *Node) ensureEngineLocked(id types.ConfigID) error {
	if n.stopped || id < n.curID {
		return nil // shutting down, or retired here: a new engine would never be needed
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
	if err := eng.Start(); err != nil {
		return err
	}
	n.engines[id] = &engineRun{id: id, cfg: cfg, eng: eng, installed: n.initialized && id == n.curID}
	return nil
}

// notifyTransitionLocked wakes everyone waiting for a configuration change.
func (n *Node) notifyTransitionLocked() {
	for _, ch := range n.cfgWaiters {
		close(ch)
	}
	n.cfgWaiters = nil
	n.staleTicks = 0
}

// houseTick is the loop's periodic turn, every retryInterval: re-proposals,
// parked reads' aging, the stale jump, the snapshot pipeline's periodic half,
// retirement, and chain gossip, whose exchange runs on a goroutine of its
// own.
func (n *Node) houseTick() {
	n.mu.Lock()
	n.tick++
	cur := n.configs[n.curID]
	member := cur.IsMember(n.self)

	if n.initialized && member {
		n.resubmitPendingLocked(false)
	}
	n.ageReadWaitersLocked()

	// Stale jump: a successor of our current configuration is known, but
	// our own engine has stopped delivering toward the wedge (e.g. the old
	// quorum is gone, or its log retired). After a grace period without
	// progress, transfer state instead of waiting — that of the newest
	// configuration the chain reaches, since every one in between has been
	// wedged already. An engine that still delivers, as one replaying its
	// log after a restart does, is left to reach the wedge itself.
	if _, ok := n.chain[n.curID]; ok && n.initialized {
		if n.appliedSlot != n.staleSlot {
			n.staleSlot, n.staleTicks = n.appliedSlot, 0
		}
		if n.staleTicks++; n.staleTicks > staleJumpTicks {
			n.stats.StaleJumps++
			n.jumpLocked(n.newestReachableLocked())
		}
	} else if n.initialized {
		n.staleTicks = 0
	}

	// The snapshot pipeline's periodic half: fetch a snapshot if this member
	// has no state, and retire what nobody can still need.
	n.maybeTransferLocked()
	n.retireLocked()

	// Anti-entropy: periodically trade chain knowledge with a random known
	// peer. This is the repair path for lost announces — a member that
	// missed a reconfiguration learns about the successor here. The
	// exchange is symmetric: we push our newest record (so blank spares,
	// which know nobody and cannot pull, still get reached) and pull the
	// peer's chain.
	// The pull names the newest configuration the node's chain reaches from
	// the one it executes, and gets only the records after it.
	var gossipTo types.NodeID
	var gossipPush []byte
	var newest types.ConfigID
	n.gossipLeft--
	if n.gossipLeft <= 0 {
		n.gossipLeft = gossipTicks
		gossipTo = n.gossipPeerLocked()
		if rec, ok := n.chain[n.curID-1]; ok && gossipTo != "" {
			gossipPush = encodeAnnounce(announceMsg{Record: rec})
		}
		newest = n.newestReachableLocked()
	}
	n.mu.Unlock()

	if gossipTo != "" {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.gossipChain(gossipTo, gossipPush, newest)
		}()
	}
}

// newestReachableLocked is the newest configuration the chain reaches from
// the current one. Caller holds mu.
func (n *Node) newestReachableLocked() types.ConfigID {
	id := n.curID
	for rec, ok := n.chain[id]; ok; rec, ok = n.chain[id] {
		id = rec.To.ID
	}
	return id
}

// retireLocked is the tick's retirement. It drops the runs of
// configurations older than the current one once they have lingered
// lingerOld — long enough for laggards to learn the wedge from them — and
// hands one retire goroutine (xfer.go) their engines to stop, the snapshots
// nobody can still need, and the engine namespaces of every older
// configuration this node holds no run of: an older configuration's engine is
// never built again (ensureEngineLocked), so its namespace is dead. Neither
// goes before a newer snapshot is durable here (snapDurable): until then a
// restart replays this node's own logs from the newest snapshot its store
// holds whole (recoverMachine), which needs that snapshot and every engine
// namespace from it on. A snapshot that a commit or the transfer goroutine may
// still be writing waits until the worker has reported its end, so no
// snapshot has two writers. One retirement runs at a time, so every engine has
// stopped before its namespace goes, whichever tick dropped it.
// What a dropped run counted stays in the node's stats, so no counter goes
// backwards. Caller holds mu, on the loop.
func (n *Node) retireLocked() {
	if n.retiring || n.stopped {
		return
	}
	var old []smr.Replica
	for id, run := range n.engines {
		if id >= n.curID {
			continue
		}
		if run.lingered++; run.lingered < int(lingerOld/retryInterval) {
			continue
		}
		delete(n.engines, id)
		n.stats.TruncatedSlots += countRun(&n.stats, run).RetainedSlots
		old = append(old, run.eng)
	}
	var snaps, streams []types.ConfigID
	for n.retiredLocked(n.retireNext) && n.retireNext < n.snapDurable && n.retireNext != n.transfer && !n.committingLocked(n.retireNext) {
		delete(n.serving, n.retireNext)
		snaps = append(snaps, n.retireNext)
		n.retireNext++
	}
	for n.discardNext < n.snapDurable && n.engines[n.discardNext] == nil && len(streams) < maxDiscards {
		streams = append(streams, n.discardNext)
		n.discardNext++
	}
	if len(old)+len(snaps)+len(streams) == 0 {
		return
	}
	n.retiring = true
	n.wg.Add(1)
	go n.retire(old, snaps, streams)
}

// maxDiscards bounds how many engine namespaces one retirement discards: a
// node that restarts, or a spare that joins, far along the chain sweeps the
// configurations below it a tick at a time.
const maxDiscards = 64

// countRun adds to out what run's engine has counted — its cumulative
// counters and, until its state is installed here, what it delivered
// speculatively — and returns the counters, whose RetainedSlots is a level
// rather than a count.
func countRun(out *NodeStats, run *engineRun) smr.Counters {
	if !run.installed {
		out.SpeculativeDecides += int64(run.eng.Progress().Delivered)
	}
	es := run.eng.Counters()
	out.DroppedInbound += es.DroppedInbound
	out.GroupCommits += es.GroupCommits
	return es
}

// --- the snapshot pipeline's reports (xfer.go) --------------------------------

// servingLocked takes publish's serialized copy of id's snapshot, which peers
// are served from while the commit writes the stored blob, and reports whether
// id is retired already; then the copy is dropped and no commit runs. Caller
// holds mu, on the loop.
func (n *Node) servingLocked(id types.ConfigID, m storage.ChunkManifest, chunks [][]byte) (retired bool) {
	if n.retiredLocked(id) {
		delete(n.serving, id)
		return true
	}
	n.serving[id] = &snapServing{manifest: m, chunks: chunks, committing: true}
	return false
}

// committedLocked takes the end of id's commit: the stored snapshot is
// durable and served from the store, or the commit failed and the in-memory
// copy stays served until retire drops it. Caller holds mu, on the loop.
func (n *Node) committedLocked(id types.ConfigID, err error) {
	if err != nil {
		n.stats.InvariantViolations++
		if s := n.serving[id]; s != nil { // nil: dropped as retired on a racing Stop
			s.committing = false
		}
		return
	}
	delete(n.serving, id)
	n.snapDurable = max(n.snapDurable, id)
}

// committingLocked reports whether a commit of id's snapshot has not reported
// its end yet. Caller holds mu.
func (n *Node) committingLocked(id types.ConfigID) bool {
	s := n.serving[id]
	return s != nil && s.committing
}

// maybeTransferLocked launches the transfer goroutine if the node is a member
// of its current configuration with no state and no transfer is running. The
// transition paths call it right away — joining latency is downtime — and the
// tick relaunches one that ended. The fetch sources are fixed at launch: the
// one chain record that names the configuration as a successor is known by
// then (fetchSourcesLocked). The node stops wanting the snapshot only when it
// moves past the configuration or stops, and jumpLocked and Stop cancel the
// transfer's context then. Caller holds mu, on the loop.
func (n *Node) maybeTransferLocked() {
	id := n.curID
	if n.transfer != 0 || n.stopped || id == 0 || n.initialized || !n.configs[id].IsMember(n.self) {
		return
	}
	ctx, cancel := context.WithCancel(n.baseCtx)
	n.transfer, n.transferCancel = id, cancel
	n.wg.Add(1)
	go n.runTransfer(ctx, id, n.fetchSourcesLocked(id))
}

// transferEndedLocked takes the transfer goroutine's last report. Caller
// holds mu, on the loop.
func (n *Node) transferEndedLocked() {
	n.transferCancel()
	n.transfer, n.transferCancel = 0, nil
}

// retireEndedLocked takes the retire goroutine's report that it is done.
// Caller holds mu, on the loop.
func (n *Node) retireEndedLocked() { n.retiring = false }
