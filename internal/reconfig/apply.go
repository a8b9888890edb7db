package reconfig

import (
	"repro/internal/smr"
	"repro/internal/statemachine"
	"repro/internal/types"
)

// applyLoop is the node's single execution thread: it serializes decisions
// from all engines into the global command sequence. The loop collects a run
// of ready decisions under n.mu, releases the mutex, executes them in order,
// and reacquires n.mu only to commit: advance the apply cursor, answer
// waiting clients, serve parked reads. Proposals, reads and housekeeping do
// not contend with execution.
func (n *Node) applyLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.stopCh:
			return
		case <-n.pumpCh:
			n.pump()
		}
	}
}

// maxApplyUnits bounds how many commands one pump round executes before
// recommitting, so a deep decision backlog cannot hold execMu (and block
// fast-path reads) unboundedly.
const maxApplyUnits = 1024

// applyUnit is one flattened command: batches are exploded into their
// members, all carrying the batch's slot.
type applyUnit struct {
	slot types.Slot
	cmd  types.Command
}

// pump applies ready decisions, up to maxApplyUnits commands a round, until
// no more progress is possible.
func (n *Node) pump() {
	for {
		r, ok := n.collectRound()
		if !ok {
			return
		}
		n.executeRound(r)
	}
}

// applyRound is one pump round's collected work and what it was collected
// against.
type applyRound struct {
	units []applyUnit
	// taken are the decisions the units were popped from, kept until the
	// round has committed: engine delivery is once-only, so a round whose
	// results are discarded must be able to give them back (requeue).
	taken   []smr.Decision
	cfg     types.ConfigID
	epoch   int64
	machine *statemachine.Sessioned
}

// collectRound is the first, locked half of a pump round.
func (n *Node) collectRound() (applyRound, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	units, taken := n.collectReadyLocked(maxApplyUnits)
	if len(units) == 0 {
		n.serveReadyReadsLocked()
		return applyRound{}, false
	}
	return applyRound{units: units, taken: taken, cfg: n.curID, epoch: n.epoch, machine: n.machine}, true
}

// executeRound executes a collected round segment by segment: a maximal run
// of ordinary commands is applied off-mutex, one command at a time on this
// goroutine; each reconfiguration executes alone under the mutex. The
// segment's last command has returned before the next unit starts, so every
// preceding mutation is complete before a wedge forks the snapshot (the
// wedge-drain rule). It stops early, giving the round's decisions back, when
// the epoch raced (results obsolete) or this configuration wedged.
func (n *Node) executeRound(r applyRound) {
	units, epoch := r.units, r.epoch
	i := 0
	for i < len(units) {
		if units[i].cmd.Kind == types.CmdReconfig {
			lastOfSlot := i+1 >= len(units) || units[i+1].slot != units[i].slot
			ok, wedged := n.applyReconfigUnit(units[i], lastOfSlot, &epoch)
			if !ok || wedged {
				n.requeue(r)
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
		if !n.applySegment(r.machine, units[i:j], commit, epoch) {
			n.requeue(r)
			return
		}
		i = j
	}
}

// requeue gives a round that stopped early its decisions back. If the
// configuration moved on they are post-wedge and follow the re-submission
// rule. If it did not, the epoch moved because a catch-up snapshot of the
// same configuration was installed mid-round: the decisions above its base
// are still this engine's to apply and will not be delivered again, so they
// go back to the head of the buffer; the pump's stale-skip drops the ones
// the snapshot (or an earlier segment's commit) already covers.
func (n *Node) requeue(r applyRound) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if run, ok := n.engines[r.cfg]; ok && n.curID == r.cfg {
		run.buffered = append(r.taken[:len(r.taken):len(r.taken)], run.buffered...)
	}
}

// collectReadyLocked pops the contiguous run of ready decisions of the
// current configuration and flattens batches into applyUnits; taken is what
// it popped. Stale redeliveries are skipped, slot gaps are invariant
// violations (the engine contract is gap-free in-order delivery).
func (n *Node) collectReadyLocked(max int) (units []applyUnit, taken []smr.Decision) {
	if !n.initialized {
		return nil, nil
	}
	run, ok := n.engines[n.curID]
	if !ok {
		return nil, nil
	}
	all := run.buffered
	cursor := n.appliedSlot
	for len(units) < max && len(run.buffered) > 0 {
		dec := run.buffered[0]
		if dec.Slot != cursor+1 && dec.Slot > cursor && run.droppedBelow > cursor {
			// The missing slots were dropped by the bounded buffer and this
			// engine will not redeliver them; leave the decision parked and
			// let checkpoint catch-up jump the cursor past the gap.
			break
		}
		run.buffered = run.buffered[1:]
		if dec.Slot != cursor+1 {
			if dec.Slot <= cursor {
				continue // stale redelivery; already executed
			}
			n.stats.InvariantViolations++
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
	return units, all[:len(all)-len(run.buffered)]
}

// applyReconfigUnit executes one reconfiguration command under the mutex.
// ok=false means the epoch raced and nothing was done; wedged reports
// whether the configuration actually transitioned (in which case the caller
// must discard the rest of its collected units). On a deterministically
// invalid reconfiguration (a no-op) the epoch is unchanged and the caller
// continues; the apply cursor only advances when this is the slot's final
// unit, so a parked read can never be served against a half-applied slot.
func (n *Node) applyReconfigUnit(u applyUnit, lastOfSlot bool, epoch *int64) (ok, wedged bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.epoch != *epoch {
		return false, false
	}
	before := n.curID
	if lastOfSlot {
		n.appliedSlot = u.slot
	}
	n.applyReconfigLocked(u.slot, u.cmd)
	*epoch = n.epoch
	n.serveReadyReadsLocked()
	return true, n.curID != before || !n.initialized
}

// applySegment applies a run of ordinary commands to the machine in decided
// order with the node mutex released, then reacquires it to commit. If the
// epoch moved while executing, the machine the segment mutated was already
// abandoned (snapshot install or configuration jump replaced it) and the
// results are discarded: nothing is committed, no client is answered;
// re-submission and session dedup re-derive the replies. Returns whether the
// commit happened.
func (n *Node) applySegment(machine *statemachine.Sessioned, seg []applyUnit, commit types.Slot, epoch int64) bool {
	replies := make([][]byte, len(seg))
	dups := make([]bool, len(seg))
	n.execMu.Lock()
	for k := range seg {
		replies[k], dups[k] = machine.ApplyCommand(seg[k].cmd)
	}
	n.execMu.Unlock()

	n.mu.Lock()
	defer n.mu.Unlock()
	if n.epoch != epoch {
		return false
	}
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
	return true
}

// routeDecisionLocked buffers or discards one decision according to which
// configuration it belongs to.
func (n *Node) routeDecisionLocked(id types.ConfigID, dec smr.Decision) {
	if id < n.curID {
		// The old engine decided something after its wedge slot. Per the
		// composition rule it is NOT applied there; if we have a client
		// waiting on it, the housekeeping loop re-proposes it in the
		// current configuration (dedup makes that idempotent).
		return
	}
	run, ok := n.engines[id]
	if !ok {
		return
	}
	if id > n.curID || !n.initialized {
		// Decided before this node's state caught up to the configuration:
		// either a future config's engine running speculatively, or the
		// current config's engine deciding while the snapshot is still in
		// flight. The decision parks here until the install.
		n.stats.SpeculativeDecides++
	}
	run.buffered = append(run.buffered, dec)
	if lim := n.opts.decisionBuffer; lim > 0 && len(run.buffered) > lim {
		// Bounded parking: drop the oldest parked decision rather than let
		// a long install window grow the buffer without limit. The dropped
		// slots cannot come back from this buffer (engine delivery is
		// once-only), so the marker reroutes the resulting cursor gap to
		// checkpoint catch-up instead of counting it as a violation.
		//
		// The bound applies only to decisions the node cannot yet apply —
		// a future configuration's engine, or the current one before its
		// snapshot installs or behind an existing drop gap. An initialized
		// node's contiguous backlog is working set the apply stage is
		// actively draining: dropping its head would cut an unfillable gap
		// right in front of the cursor (a permanent wedge under the
		// NoCheckpoints ablation — restart recovery redelivers the whole
		// retained log in one burst — and a spurious refetch otherwise).
		// Its size needs no bound here: it is capped by what the engines
		// retain, which truncation keeps near interval+margin.
		if id > n.curID || !n.initialized || run.droppedBelow > n.appliedSlot {
			if d := run.buffered[0]; d.Slot > run.droppedBelow {
				run.droppedBelow = d.Slot
			}
			run.buffered = run.buffered[1:]
			n.stats.DecisionBufferDrops++
		}
	}
	if d := int64(len(run.buffered)); d > n.stats.DecisionBufferHigh {
		n.stats.DecisionBufferHigh = d
	}
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

	// Let the old engine linger for laggards, then stop it.
	if run, ok := n.engines[rec.From]; ok {
		n.scheduleEngineStop(run)
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
