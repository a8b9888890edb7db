package reconfig

import (
	"fmt"
	"time"

	"repro/internal/smr"
	"repro/internal/statemachine"
	"repro/internal/types"
)

// applyLoop is the node's one loop. It alone takes decisions from an engine —
// the current configuration's, and only while that configuration is installed
// here — and executes them in decided order, and it runs the node's periodic
// tick (houseTick). Once Start has returned it alone assigns the machine, the
// current configuration, whether it is installed and the apply cursor, the
// chain, the configurations and the engine runs, and it alone starts and
// retires engines. What another goroutine learns that changes those (a chain
// record from a peer, a fetched snapshot's install) is handed to it (onLoop)
// and runs between two rounds, never while a segment executes, so no round's
// work is ever overtaken. Every other engine keeps what it decides, as
// smr.Engine allows: a speculative successor until its state is installed, a
// wedged predecessor until it is retired.
//
// A round collects a run of taken decisions under n.mu, releases the mutex,
// executes them, and reacquires n.mu only to commit: advance the apply
// cursor, answer waiting clients, serve parked reads. Proposals and reads do
// not contend with execution.
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

// onLoop hands f to the apply loop, which runs it under n.mu between two
// rounds, in the order handed, and waits until it has; false means the node
// stopped first. The caller holds no lock and is not the loop.
func (n *Node) onLoop(f func()) bool {
	done := make(chan struct{})
	n.mu.Lock()
	n.handoff = append(n.handoff, func() { f(); close(done) })
	n.mu.Unlock()
	select {
	case n.pumpCh <- struct{}{}:
	default: // a wake is already pending; the loop will see f too
	}
	select {
	case <-done:
		return true
	case <-n.stopCh:
		return false
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
// local state (a fetch must follow if we are a member): a spare or retired
// node adopting an announced successor, or a stale jump. It runs on the apply
// loop. The old configuration's run stays until the tick retires it. Caller
// holds mu.
func (n *Node) jumpLocked(id types.ConfigID) {
	if run, ok := n.engines[n.curID]; ok {
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
	if n.recordLocked(rec) {
		return
	}
	n.stats.Wedges++

	// The machine state at the wedge IS the successor's initial state:
	// publish it at base 0. Only the copy-on-write fork (O(shards)) runs
	// under n.mu.
	n.publishAsyncLocked(newCfg.ID, 0, n.machine.ForkSnapshot())

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
// engine retirement, and the checkpoint re-announce and chain gossip, whose
// exchanges run on goroutines of their own.
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
	// our own engine has not delivered the wedge (e.g. the old quorum is
	// gone). After a grace period, transfer state instead of waiting.
	if rec, ok := n.chain[n.curID]; ok && n.initialized {
		if n.staleTicks++; n.staleTicks > staleJumpTicks {
			n.stats.StaleJumps++
			n.jumpLocked(rec.To.ID)
		}
	} else if n.initialized {
		n.staleTicks = 0
	}

	// The snapshot pipeline's periodic half: fetch a snapshot if this member
	// has no state or is too far behind to replay, publish a checkpoint when
	// the applied cursor is an interval past the last, and retire snapshots
	// nobody can still need.
	n.maybeTransferLocked()
	n.maybeCheckpointLocked()
	n.maybeRetireLocked()
	n.retireEnginesLocked()

	// Periodic checkpoint-base re-announce: repairs lost announces and
	// keeps feeding peer bases into the truncation computation.
	var ckptBody []byte
	var ckptTo []types.NodeID
	n.ckptAnnounceLeft--
	if n.ckptAnnounceLeft <= 0 {
		n.ckptAnnounceLeft = ckptAnnounceTicks
		if !n.opts.NoCheckpoints && n.initialized && member &&
			n.ckptCfg == n.curID && n.ckptSelfBase > 0 {
			ckptBody = encodeCkptAnnounce(ckptMsg{Config: n.curID, Base: n.ckptSelfBase})
			ckptTo = append([]types.NodeID(nil), cur.Members...)
		}
		n.maybeTruncateLocked()
	}

	// Anti-entropy: periodically trade chain knowledge with a random known
	// peer. This is the repair path for lost announces — a member that
	// missed a reconfiguration learns about the successor here. The
	// exchange is symmetric: we push our newest record (so blank spares,
	// which know nobody and cannot pull, still get reached) and pull the
	// peer's chain.
	var gossipTo types.NodeID
	var gossipPush []byte
	n.gossipLeft--
	if n.gossipLeft <= 0 {
		n.gossipLeft = gossipTicks
		gossipTo = n.gossipPeerLocked()
		if rec, ok := n.chain[n.curID-1]; ok && gossipTo != "" {
			gossipPush = encodeAnnounce(announceMsg{Record: rec})
		}
	}
	n.mu.Unlock()

	if gossipTo != "" {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.gossipChain(gossipTo, gossipPush)
		}()
	}
	if ckptBody != nil {
		n.broadcastCkpt(ckptTo, ckptBody)
	}
}

// retireEnginesLocked drops the runs of configurations older than the current
// one once they have lingered lingerOld — long enough for laggards to learn
// the wedge from them — and stops their engines on one goroutine off the
// loop: Stop waits for an engine's loop, which may sit in a held flush. What
// a dropped run counted stays in the node's stats, so no counter goes
// backwards. Caller holds mu, on the loop.
func (n *Node) retireEnginesLocked() {
	var old []smr.Replica
	for id, run := range n.engines {
		if id >= n.curID || n.stopped {
			continue
		}
		if run.lingered++; run.lingered < int(lingerOld/retryInterval) {
			continue
		}
		delete(n.engines, id)
		countRun(&n.stats, run)
		old = append(old, run.eng)
	}
	if len(old) == 0 {
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for _, eng := range old {
			eng.Stop()
		}
	}()
}

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
	out.TruncatedSlots += es.TruncatedSlots
	return es
}
