package reconfig

import (
	"repro/internal/smr"
	"repro/internal/statemachine"
	"repro/internal/types"
)

// applyLoop is the node's single execution thread and the one owner of its
// apply side. It alone takes decisions from an engine — the current
// configuration's, and only while that configuration is installed here — and
// executes them in decided order; once Start has returned it alone assigns
// the machine, the current configuration, whether it is installed and the
// apply cursor. What changes those from another goroutine (a stale jump, a
// fetched snapshot's install) is handed to it (handLocked) and runs between
// two rounds, never while a segment executes, so no round's work is ever
// overtaken. Every other engine keeps what it decides, as smr.Engine allows:
// a speculative successor until its state is installed, a wedged predecessor
// until it is stopped.
//
// A round collects a run of taken decisions under n.mu, releases the mutex,
// executes them, and reacquires n.mu only to commit: advance the apply
// cursor, answer waiting clients, serve parked reads. Proposals, reads and
// housekeeping do not contend with execution.
func (n *Node) applyLoop() {
	defer n.wg.Done()
	for {
		units, run := n.collectRound()
		if len(units) > 0 {
			n.executeRound(units)
			continue
		}
		var decs <-chan smr.Decision
		if run != nil {
			decs = run.eng.Decisions()
		}
		select {
		case <-n.stopCh:
			return
		case <-n.pumpCh:
		case d, ok := <-decs:
			// The installed configuration's engine is stopped only by Stop,
			// which closes stopCh first.
			if ok {
				n.mu.Lock()
				run.buffered = append(run.buffered, d)
				n.mu.Unlock()
			}
		}
	}
}

// handLocked hands f to the apply loop, which runs it under n.mu between two
// rounds, in the order handed. Caller holds mu.
func (n *Node) handLocked(f func()) {
	n.handoff = append(n.handoff, f)
	select {
	case n.pumpCh <- struct{}{}:
	default: // a wake is already pending; the loop will see f too
	}
}

// maxApplyUnits bounds how many commands one round executes before
// recommitting, so a deep decision backlog cannot hold execMu (and block
// fast-path reads) unboundedly, nor keep a handed-over install waiting.
const maxApplyUnits = 1024

// applyUnit is one flattened command: batches are exploded into their
// members, all carrying the batch's slot.
type applyUnit struct {
	slot types.Slot
	cmd  types.Command
}

// collectRound is the first, locked half of a round. It runs whatever was
// handed to the loop, takes what the installed configuration's channel holds
// into its head, and pops the round's units off the head. run is the
// installed configuration's engine run, nil when none is.
func (n *Node) collectRound() (units []applyUnit, run *engineRun) {
	n.mu.Lock()
	defer n.mu.Unlock()
	handoff := n.handoff
	n.handoff = nil
	for _, f := range handoff {
		f()
	}
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
// head and flattens batches into applyUnits. Stale redeliveries — slots an
// installed snapshot already covers — are skipped; a slot gap is an
// invariant violation (the engine contract is gap-free in-order delivery).
func (n *Node) collectReadyLocked(run *engineRun, max int) (units []applyUnit) {
	cursor := n.appliedSlot
	for len(units) < max && len(run.buffered) > 0 {
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
	n.applyReconfigLocked(u.slot, u.cmd)
	n.serveReadyReadsLocked()
	return n.curID != before || !n.initialized
}

// applySegment applies a run of ordinary commands to the machine in decided
// order with the node mutex released, then reacquires it to commit. The
// machine cannot be replaced meanwhile: only this goroutine replaces it, and
// only between rounds.
func (n *Node) applySegment(seg []applyUnit, commit types.Slot) {
	replies := make([][]byte, len(seg))
	dups := make([]bool, len(seg))
	n.execMu.Lock()
	for k := range seg {
		replies[k], dups[k] = n.machine.ApplyCommand(seg[k].cmd)
	}
	n.execMu.Unlock()

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
	n.serveReadyReadsLocked()
}

// installLocked adopts fresh, a machine built from a complete snapshot, as
// the state of configuration id at slot base: a joiner's initial state, a
// lagging member's jump forward, or what Start found in the node's own store.
// It runs on the apply loop (handed over by install) or in Start before the
// loop exists. An initialized node refuses a base at or below its apply
// cursor — it would move the state backwards. Reports whether the install
// happened and whether it was this node's first state of id. Caller holds mu.
func (n *Node) installLocked(id types.ConfigID, base types.Slot, fresh *statemachine.Sessioned) (installed, joined bool) {
	if n.stopped || n.curID != id || (n.initialized && base <= n.appliedSlot) {
		return false, false
	}
	joined = !n.initialized
	n.machine = fresh
	n.initialized = true
	// The snapshot folds in every slot up to its base: start applying at
	// base, so the stale-skip (dec.Slot <= appliedSlot) discards the taken
	// and redelivered decisions the snapshot already covers and no client
	// reply fires for a slot before the apply point passes base.
	n.appliedSlot = base
	if err := n.ensureEngineLocked(id); err != nil {
		n.stats.InvariantViolations++
	}
	if joined {
		n.stats.SnapshotsFetched++
		// What a speculative engine decided during the transfer stayed in
		// it; the loop takes it from here.
		n.stats.SpeculativeParked += n.takeOverLocked(id)
		// The chunks are in the store already (fetched incrementally, or
		// read from it by Start), and a caller installing a base above 0
		// has made them durable, so the base is durable here.
		n.noteDurableBaseLocked(base)
	} else {
		n.stats.CatchupFetches++
	}
	if run, ok := n.engines[id]; ok && base > 0 {
		// The engine releases its own records below base and resumes
		// contiguous delivery above it. Without this a delivery cursor
		// below a floor the peers already truncated never moves again.
		run.eng.SkipTo(base)
	}
	n.resubmitPendingLocked(true)
	n.notifyTransitionLocked()
	return true, joined
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
// local state (a fetch must follow if we are a member). It runs on the apply
// loop, handed over by advanceToLocked. Caller holds mu.
func (n *Node) jumpLocked(id types.ConfigID) {
	if run, ok := n.engines[n.curID]; ok {
		n.scheduleEngineStop(run)
		run.buffered = nil
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
	resp := EncodeSubmitResult(SubmitResult{
		Status: SubmitApplied,
		Reply:  reply,
		Config: n.configs[n.curID],
		Leader: n.leaderHintLocked(),
	})
	for _, respond := range p.responders {
		respond(resp)
	}
}

func (n *Node) leaderHintLocked() types.NodeID {
	if run, ok := n.engines[n.curID]; ok {
		hint, _ := run.eng.Leader()
		return hint
	}
	return ""
}

// applyReconfigLocked performs the wedge transition: configuration curID is
// wedged at slot, its state becomes the successor's initial state, and the
// successor engine takes over.
func (n *Node) applyReconfigLocked(slot types.Slot, cmd types.Command) {
	newCfg, err := types.DecodeConfig(cmd.Data)
	if err != nil || newCfg.ID != n.curID+1 {
		// Deterministically invalid (stale ID from a racing proposer or
		// corrupt): every replica treats it as a no-op.
		return
	}
	rec := ChainRecord{
		From:        n.curID,
		FromMembers: n.configs[n.curID].Members,
		WedgeSlot:   slot,
		To:          newCfg,
	}
	if prev, ok := n.chain[rec.From]; ok {
		if !prev.Equal(rec) {
			// Two different successors for one configuration would be
			// a chain fork — agreement inside the engine forbids it.
			n.stats.InvariantViolations++
			return
		}
	} else {
		// Staged, with no barrier of its own: this node acts in the successor
		// only through its engine, whose first barrier covers the record, or
		// through a snapshot commit or transfer, whose barriers do too. A
		// record lost before any of them is redelivered by this
		// configuration's log.
		n.chain[rec.From] = rec
		if err := n.store.SetBuffered(chainKey(rec.From), encodeChainRecord(rec)); err != nil {
			n.stats.InvariantViolations++
		}
	}
	n.configs[newCfg.ID] = newCfg
	n.stats.Wedges++

	// The machine state at the wedge IS the successor's initial state:
	// publish it at base 0. Only the copy-on-write fork (O(shards)) runs
	// under n.mu.
	n.publishAsyncLocked(newCfg.ID, 0, n.machine.ForkSnapshot())

	// Let the old engine linger for laggards, then stop it. What the round
	// took past the wedge is dropped with its head, and what the engine
	// decides after it stays there.
	if run, ok := n.engines[rec.From]; ok {
		n.scheduleEngineStop(run)
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
// Best-effort: the housekeeping loop and discovery RPCs cover losses.
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
// command backs off exponentially (with jitter) across housekeeping ticks so
// a stalled configuration is not hammered every tick; force resets the
// backoff and re-proposes everything immediately — used on configuration
// transitions, where the fresh engine deserves an instant try.
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
// housekeeping re-proposal is one jittered step away, and the step doubles.
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
