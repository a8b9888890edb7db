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
// through its mailbox, and so do every control request, every Reconfigure,
// every inspection (inspect) and what another goroutine learns that changes
// the node's state (a chain record from a peer, a fetched snapshot's install,
// a worker's report; onLoop). The mailbox is drained whole at the top of
// every round, in arrival order, never while a segment executes, so no
// round's work is overtaken. Every other engine keeps what it decides, as
// smr.Engine allows: a speculative successor until its state is installed, a
// wedged predecessor until it is retired.
//
// No other goroutine reads the loop's state: the inspectors read the view it
// publishes at every transition (publishView) or run on it (inspect), and once
// it has exited they read its final state.
func (n *Node) applyLoop() {
	defer n.wg.Done()
	defer n.exit()
	ticker := time.NewTicker(retryInterval)
	defer ticker.Stop()
	for {
		units, run := n.collectRound()
		if len(units) > 0 {
			n.executeRound(units)
			select {
			case <-n.stopCh:
				return
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
			// once the loop has exited.
			if ok {
				run.buffered = append(run.buffered, d)
			}
		}
	}
}

// exit is the loop's last step: every Reconfigure waiter is answered
// ErrStopped, and the loop's state, final from here on, is handed to the
// inspectors.
func (n *Node) exit() {
	n.filterReconfigs(func(w *reconfigWaiter) bool {
		w.answer(types.Config{}, ErrStopped)
		return false
	})
	close(n.exited)
}

// mailboxLimit bounds the loop's mailbox. A client command or a control
// request that finds it full is dropped, as a lost frame is, and the asker's
// retry covers it (an in-process Submit fails with ErrBusy); a fast read's
// index is answered SubmitBusy instead (tryFastRead); work posted by onLoop,
// an in-process Reconfigure and an inspection wait for room.
const mailboxLimit = 16384

// loopMsg is one entry of the loop's mailbox: work posted by onLoop or a
// control request (f), a client command to admit (cmd, respond), or a fast
// read of cmd whose engine has answered (readCfg, the configuration it was
// classified in, is set; index and err are the answer).
type loopMsg struct {
	f       func()
	cmd     types.Command
	respond func([]byte)
	readCfg types.ConfigID
	index   types.Slot
	err     error
}

// post hands f to the apply loop, which runs it between two rounds, in
// arrival order; false means the node stopped first, and then f is not left
// in the mailbox of a loop that may never drain it again. It waits only for
// room in the mailbox. The caller is not the loop.
func (n *Node) post(f func()) bool { return !n.stopping() && n.mailbox.Put(loopMsg{f: f}, n.stopCh) }

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

// drainMailbox runs, in arrival order, all that the mailbox holds. The
// client commands of one drain are proposed back to back, so the engine takes
// a clump that left a client together as one. It runs on the loop.
func (n *Node) drainMailbox() {
	n.taken = n.mailbox.Take(n.taken[:0], mailboxLimit)
	for _, m := range n.taken {
		switch {
		case m.f != nil:
			m.f()
		case m.readCfg != 0:
			n.completeRead(m)
		default:
			n.admit(m.cmd, m.respond)
		}
	}
	clear(n.taken) // drop the commands and callbacks the buffer holds
}

// admit serves one client command: a redirect when this node cannot
// take it, the recorded reply of an executed duplicate, a fast read, or
// admission into the pending commands and a proposal into the current
// engine. It runs on the loop.
func (n *Node) admit(cmd types.Command, respond func([]byte)) {
	if n.stopping() || cmd.Kind != types.CmdApp || cmd.Client == "" || cmd.Seq == 0 {
		return // malformed; client library never sends this
	}
	if !n.configs[n.curID].IsMember(n.self) || !n.initialized && !n.speculationOn() {
		respond(n.redirectReply())
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
			respond(n.appliedReply(reply))
			return
		}
		if n.tryFastRead(cmd, respond) {
			return
		}
	}
	if !n.admitSubmit(cmd) {
		respond(n.busyReply())
		return
	}
	n.enqueueSubmit(cmd, respond)
}

// admitSubmit decides whether a client command may join the pending
// proposal queue — the admission control gate. A retry of an already-admitted
// command always passes (it only attaches another waiter); past the bound,
// new commands are shed. Only opSubmit traffic ever reaches this gate:
// reconfigurations, chain records, announces and state transfer have their
// own op codes, so control-plane progress is never queued behind client load.
func (n *Node) admitSubmit(cmd types.Command) bool {
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

// busyReply builds the SubmitBusy shed reply. RetryAfter is the
// tick interval: by then the node has re-proposed its backlog at
// least once, so the queue has had a real chance to drain.
func (n *Node) busyReply() []byte {
	return EncodeSubmitResult(SubmitResult{
		Status:     SubmitBusy,
		Config:     n.configs[n.curID],
		Leader:     n.LeaderHint(),
		RetryAfter: retryInterval,
	})
}

// enqueueSubmit registers a pending waiter for cmd and proposes it
// into the current engine — the ordinary log path for writes and for reads
// that could not use the fast path.
func (n *Node) enqueueSubmit(cmd types.Command, respond func([]byte)) {
	key := pendKey{client: cmd.Client, seq: cmd.Seq}
	p, ok := n.pending[key]
	if !ok {
		p = &pendingCmd{cmd: cmd}
		// The proposal below is try zero, so the backoff clock starts here: a
		// zero nextRetry would have the very next tick re-propose
		// a command that is merely in flight. The extra tick covers the
		// current one, which is already partly spent.
		n.armRetry(p)
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

// collectRound is the first half of a round. It drains the mailbox, takes
// what the installed configuration's channel holds into its head, and pops
// the round's units off the head. run is the installed configuration's
// engine run, nil when none is.
func (n *Node) collectRound() (units []applyUnit, run *engineRun) {
	n.drainMailbox()
	if run = n.engines[n.curID]; run == nil || !n.initialized {
		n.serveReadyReads()
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
	if units = n.collectReady(run, maxApplyUnits); len(units) == 0 {
		n.serveReadyReads()
	}
	return units, run
}

// executeRound executes a collected round segment by segment: a maximal run
// of ordinary commands is applied one command at a time; each
// reconfiguration executes alone. The
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

// collectReady pops the contiguous run of ready decisions off run's
// head and flattens batches into applyUnits, up to the log bound: the slots
// past it are post-wedge. Stale redeliveries — slots an installed snapshot
// already covers — are skipped; a slot gap is an invariant violation (the
// engine contract is gap-free in-order delivery).
func (n *Node) collectReady(run *engineRun, max int) (units []applyUnit) {
	cursor, bound := n.appliedSlot, n.logBound()
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

// applyReconfigUnit executes one reconfiguration command and reports whether
// the configuration transitioned, in which case the caller drops the rest of
// its round. A deterministically invalid reconfiguration is a no-op and the
// round goes on; the apply cursor only advances when this is the slot's final
// unit, so a parked read can never be served against a half-applied slot.
func (n *Node) applyReconfigUnit(u applyUnit, lastOfSlot bool) (wedged bool) {
	before := n.curID
	if lastOfSlot {
		n.appliedSlot = u.slot
	}
	// A deterministically invalid one (a stale ID from a racing proposer, or
	// corrupt) is a no-op at every replica.
	if newCfg, err := types.DecodeConfig(u.cmd.Data); err == nil && newCfg.ID == n.curID+1 {
		n.wedge(u.slot, newCfg)
	} else {
		n.wedgeAtBound()
	}
	n.serveReadyReads()
	return n.curID != before || !n.initialized
}

// applySegment applies a run of ordinary commands to the machine in decided
// order, then commits: it advances the apply cursor, makes the wedge at the
// log bound if the cursor reached it, and only then answers the waiting
// clients, with the replies built as their commands executed. So a client
// answered here finds the node as the turn leaves it: its next command goes
// to the successor, not to a log that has ended, and the inspectors show the
// successor. Only the loop reads or replaces the machine, so nothing can
// observe a half-applied segment.
func (n *Node) applySegment(seg []applyUnit, commit types.Slot) {
	answers := make([]answer, 0, len(seg))
	for _, u := range seg {
		reply, dup := n.machine.ApplyCommand(u.cmd)
		n.stats.Applied++
		if dup {
			n.stats.Duplicates++
		}
		if u.cmd.Client == "" {
			continue
		}
		key := pendKey{client: u.cmd.Client, seq: u.cmd.Seq}
		if p, ok := n.pending[key]; ok {
			delete(n.pending, key)
			if len(p.responders) > 0 {
				answers = append(answers, answer{p.responders, n.appliedReply(reply)})
			}
		}
	}
	if commit > n.appliedSlot {
		n.appliedSlot = commit
	}
	n.wedgeAtBound()
	for _, a := range answers {
		for _, respond := range a.responders {
			respond(a.resp)
		}
	}
	n.serveReadyReads()
}

// answer is the reply to every waiter of one executed command.
type answer struct {
	responders []func([]byte)
	resp       []byte
}

// adopt installs fresh, a machine built from a complete snapshot, as the
// state of configuration id at slot 0: a joiner's initial state, a lagging
// member's after a stale jump, or what Start found in the node's own store.
// It runs on the apply loop (handed over by install) or in Start before the
// loop exists, and only on a node without state: an initialized node holds
// id's state already. Reports whether the install happened.
func (n *Node) adopt(id types.ConfigID, fresh *statemachine.Sessioned) bool {
	if n.stopping() || n.curID != id || n.initialized {
		return false
	}
	n.machine = fresh
	n.initialized = true
	n.appliedSlot = 0
	n.snapDurable = max(n.snapDurable, id)
	if err := n.ensureEngine(id); err != nil {
		n.stats.InvariantViolations++
	}
	n.stats.SnapshotsFetched++
	// What a speculative engine decided during the transfer stayed in it;
	// the loop takes it from here.
	n.stats.SpeculativeParked += n.takeOver(id)
	n.resubmitPending(true)
	n.notifyTransition()
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
// (retireDue). A manifest with a partial chunk set (crashed mid-transfer),
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
			n.curID, n.initialized = id, true
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
			if err != nil {
				n.stats.InvariantViolations++
				return nil
			}
			if id != cur {
				log.Printf("reconfig: %s has no whole snapshot of cfg %d; replaying its logs from cfg %d", n.self, cur, id)
			}
			n.curID = id
			n.adopt(id, fresh)
			return nil
		}
		prev := id - 1
		_, wedged := n.chain[prev]
		if !wedged || prev < n.discardNext || !n.configs[prev].IsMember(n.self) {
			return nil
		}
	}
}

// takeOver makes configuration id's engine run the loop's to take
// from, now that its state is installed here, and returns how many decisions
// its engine delivered before: they were decided speculatively and are
// counted in SpeculativeDecides.
func (n *Node) takeOver(id types.ConfigID) int64 {
	run, ok := n.engines[id]
	if !ok || run.installed {
		return 0
	}
	run.installed = true
	spec := int64(run.eng.Progress().Delivered)
	n.stats.SpeculativeDecides += spec
	return spec
}

// jump moves the node's execution cursor to configuration id without
// local state (a fetch must follow if we are a member): a spare or retired
// node adopting an announced successor, or a stale jump. It runs on the apply
// loop. The old configuration's run stays until the tick retires it, and a
// running transfer is cancelled.
func (n *Node) jump(id types.ConfigID) {
	if run, ok := n.engines[n.curID]; ok {
		run.buffered = nil
	}
	if n.transferCancel != nil {
		n.transferCancel() // its snapshot is of a configuration the node leaves
	}
	n.curID = id
	n.appliedSlot = 0
	n.initialized = false
	member := n.configs[id].IsMember(n.self)
	if member {
		if n.speculationOn() {
			if err := n.ensureEngine(id); err != nil {
				n.stats.InvariantViolations++
			}
		}
		n.maybeTransfer()
	}
	n.notifyTransition()
	if !member {
		n.redirectAllPending()
	}
	n.serveReadyReads()
}

// appliedReply builds the SubmitApplied reply carrying reply.
func (n *Node) appliedReply(reply []byte) []byte {
	return EncodeSubmitResult(SubmitResult{
		Status: SubmitApplied,
		Reply:  reply,
		Config: n.configs[n.curID],
		Leader: n.LeaderHint(),
	})
}

// logBound is the slot at which every configuration's log ends, 0 when
// the bound is off (Options.NoCheckpoints).
func (n *Node) logBound() types.Slot {
	if n.opts.NoCheckpoints {
		return 0
	}
	return types.Slot(n.opts.logBound)
}

// wedgeAtBound ends the current configuration once the apply cursor
// has reached the log bound with no decided reconfiguration before it: every
// member does the same at the same slot, after the slot's whole batch, so the
// successor — ID+1, the same members — is the one every log would have
// chosen, and P2 holds as for any wedge. This is log compaction: the
// successor starts a fresh log from the wedge-time state, and the old log is
// discarded whole once its run retires. It runs on the loop.
func (n *Node) wedgeAtBound() {
	if bound := n.logBound(); !n.initialized || bound == 0 || n.appliedSlot < bound {
		return
	}
	next, err := types.NewConfig(n.curID+1, n.configs[n.curID].Members)
	if err != nil {
		n.stats.InvariantViolations++
		return
	}
	before := n.curID
	n.wedge(n.appliedSlot, next)
	if n.curID != before {
		n.stats.CheckpointsPublished++
	}
}

// wedge performs the wedge transition: configuration curID is wedged at
// slot, its state becomes newCfg's initial state, and the successor engine
// takes over.
func (n *Node) wedge(slot types.Slot, newCfg types.Config) {
	rec := ChainRecord{
		From:        n.curID,
		FromMembers: n.configs[n.curID].Members,
		WedgeSlot:   slot,
		To:          newCfg,
	}
	if n.record(rec) {
		return
	}
	n.stats.Wedges++

	// The machine state at the wedge IS the successor's initial state:
	// publish it at base 0. Only the copy-on-write fork (O(shards)) runs on
	// the loop; from here until the commit reports its end, retire leaves
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
	n.announce(rec)

	if newCfg.IsMember(n.self) {
		// We hold the state already: activate immediately; the engine
		// starts speculatively regardless of the snapshot (it is local).
		if err := n.ensureEngine(newCfg.ID); err != nil {
			n.stats.InvariantViolations++
		}
		n.takeOver(newCfg.ID)
		// initialized stays true: machine == initial state of newCfg.
		n.resubmitPending(true)
	} else {
		// We are retired: stop executing, and redirect every waiting client
		// to the new configuration once the view shows it.
		n.initialized = false
	}
	n.notifyTransition()
	if !n.initialized {
		n.redirectAllPending()
	}
}

// announce broadcasts the chain record to the successor's members.
// Best-effort: gossip and discovery RPCs cover losses.
func (n *Node) announce(rec ChainRecord) {
	body := encodeAnnounce(announceMsg{Record: rec})
	for _, m := range rec.To.Members {
		if m == n.self {
			continue
		}
		n.sendAnnounce(m, body)
	}
}

// resubmitPending re-proposes pending commands into the current
// configuration's engine. Session dedup makes duplicates harmless. Each
// command backs off exponentially (with jitter) across ticks so a stalled
// configuration is not hammered every tick; force resets the backoff and
// re-proposes everything immediately — used on configuration transitions,
// where the fresh engine deserves an instant try.
func (n *Node) resubmitPending(force bool) {
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
		n.armRetry(p)
	}
}

// armRetry starts p's backoff clock at a proposal made now: the next
// re-proposal by the tick is one jittered step away, and the step doubles.
func (n *Node) armRetry(p *pendingCmd) {
	step := int64(1) << p.backoff
	if p.backoff < 4 { // cap at 16 ticks between re-proposals
		p.backoff++
	}
	p.nextRetry = n.tick + step + n.rng.Int63n(step+1)
}

// redirectAllPending answers every waiting client with a redirect to
// the current configuration.
func (n *Node) redirectAllPending() {
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

// record adds rec to the chain and the configurations, staging it if it
// is new, and reports a fork: a second successor of one configuration, which
// agreement inside the engine forbids, is counted and not adopted. The record
// is staged with no barrier of its own: this node acts in the successor only
// through its engine, whose first barrier covers the record, or through a
// snapshot commit or transfer, whose barriers do too; one lost before any of
// them is redelivered by its configuration's log or relearned by gossip. It
// runs on the loop.
func (n *Node) record(rec ChainRecord) (fork bool) {
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

// integrate adds chain records learned from peers. For each record it starts
// the successor's engine speculatively if this node belongs to it, and jumps
// straight to the successor when the node is not executing an older
// configuration; an executing member waits for its own log to deliver the
// wedge, or for the stale jump. It runs on the loop.
func (n *Node) integrate(initial types.Config, recs ...ChainRecord) {
	if _, ok := n.configs[initial.ID]; initial.ID != 0 && !ok {
		n.configs[initial.ID] = initial
	}
	for _, rec := range recs {
		if n.stopping() || n.record(rec) {
			continue
		}
		if rec.To.IsMember(n.self) && n.speculationOn() {
			if err := n.ensureEngine(rec.To.ID); err != nil {
				n.stats.InvariantViolations++
			}
		}
		if rec.To.ID > n.curID && !(n.initialized && n.configs[n.curID].IsMember(n.self)) {
			n.jump(rec.To.ID)
		}
	}
	n.serveReadyReads()
}

// ensureEngine creates and starts the engine for configuration id if
// this node is a member and it is not already running. It refuses a
// configuration older than the current one: its run is retired or was never
// needed, and gossip replays every record, so rebuilding its engine from the
// store would restart it every gossip round. It runs on the loop or in Start.
func (n *Node) ensureEngine(id types.ConfigID) error {
	if n.stopping() || id < n.curID {
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

// notifyTransition is every transition's last step: it publishes the
// new view, which wakes WaitServing, and settles the Reconfigure waiters.
func (n *Node) notifyTransition() {
	n.staleTicks = 0
	n.publishView()
	n.settleReconfigs()
}

// houseTick is the loop's periodic turn, every retryInterval: re-proposals,
// parked reads' aging, the stale jump, the snapshot pipeline's periodic half,
// retirement, the Reconfigure waiters, and chain gossip, whose exchange runs
// on a goroutine of its own.
func (n *Node) houseTick() {
	n.tick++
	cur := n.configs[n.curID]
	member := cur.IsMember(n.self)

	if n.initialized && member {
		n.resubmitPending(false)
	}
	n.ageReadWaiters()
	n.retryReconfigs()

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
			n.jump(n.newestReachable())
		}
	} else if n.initialized {
		n.staleTicks = 0
	}

	// The snapshot pipeline's periodic half: fetch a snapshot if this member
	// has no state, and retire what nobody can still need.
	n.maybeTransfer()
	n.retireDue()

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
		gossipTo = n.gossipPeer()
		if rec, ok := n.chain[n.curID-1]; ok && gossipTo != "" {
			gossipPush = encodeAnnounce(announceMsg{Record: rec})
		}
		newest = n.newestReachable()
	}
	if gossipTo != "" {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.gossipChain(gossipTo, gossipPush, newest)
		}()
	}
}

// newestReachable is the newest configuration the chain reaches from
// the current one.
func (n *Node) newestReachable() types.ConfigID {
	id := n.curID
	for rec, ok := n.chain[id]; ok; rec, ok = n.chain[id] {
		id = rec.To.ID
	}
	return id
}

// retireDue is the tick's retirement. It drops the runs of
// configurations older than the current one once they have lingered
// lingerOld — long enough for laggards to learn the wedge from them — and
// hands one retire goroutine (xfer.go) their engines to stop, the snapshots
// nobody can still need, and the engine namespaces of every older
// configuration this node holds no run of: an older configuration's engine is
// never built again (ensureEngine), so its namespace is dead. Neither
// goes before a newer snapshot is durable here (snapDurable): until then a
// restart replays this node's own logs from the newest snapshot its store
// holds whole (recoverMachine), which needs that snapshot and every engine
// namespace from it on. A snapshot that a commit or the transfer goroutine may
// still be writing waits until the worker has reported its end, so no
// snapshot has two writers. One retirement runs at a time, so every engine has
// stopped before its namespace goes, whichever tick dropped it.
// What a dropped run counted stays in the node's stats, so no counter goes
// backwards. It runs on the loop.
func (n *Node) retireDue() {
	if n.retiring || n.stopping() {
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
	for n.retired(n.retireNext) && n.retireNext < n.snapDurable && n.retireNext != n.transfer && !n.committing(n.retireNext) {
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

// published takes publish's serialized copy of id's snapshot, which peers
// are served from while the commit writes the stored blob, and reports whether
// id is retired already; then the copy is dropped and no commit runs. It
// runs on the loop.
func (n *Node) published(id types.ConfigID, m storage.ChunkManifest, chunks [][]byte) (retired bool) {
	if n.retired(id) {
		delete(n.serving, id)
		return true
	}
	n.serving[id] = &snapServing{manifest: m, chunks: chunks, committing: true}
	return false
}

// committed takes the end of id's commit: the stored snapshot is
// durable and served from the store, or the commit failed and the in-memory
// copy stays served until retire drops it. It runs on the loop.
func (n *Node) committed(id types.ConfigID, err error) {
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

// committing reports whether a commit of id's snapshot has not reported
// its end yet.
func (n *Node) committing(id types.ConfigID) bool {
	s := n.serving[id]
	return s != nil && s.committing
}

// maybeTransfer launches the transfer goroutine if the node is a member
// of its current configuration with no state and no transfer is running. The
// transition paths call it right away — joining latency is downtime — and the
// tick relaunches one that ended. The fetch sources are fixed at launch: the
// one chain record that names the configuration as a successor is known by
// then (fetchSources). The node stops wanting the snapshot only when it
// moves past the configuration or stops, and jump and Stop cancel the
// transfer's context then. It runs on the loop.
func (n *Node) maybeTransfer() {
	id := n.curID
	if n.transfer != 0 || n.stopping() || id == 0 || n.initialized || !n.configs[id].IsMember(n.self) {
		return
	}
	ctx, cancel := context.WithCancel(n.baseCtx)
	n.transfer, n.transferCancel = id, cancel
	n.wg.Add(1)
	go n.runTransfer(ctx, id, n.fetchSources(id))
}

// transferEnded takes the transfer goroutine's last report. It runs on
// the loop.
func (n *Node) transferEnded() {
	n.transferCancel()
	n.transfer, n.transferCancel = 0, nil
}

// retireEnded takes the retire goroutine's report that it is done. It
// runs on the loop.
func (n *Node) retireEnded() { n.retiring = false }
