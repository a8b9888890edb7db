package reconfig

import "repro/internal/types"

// This file is the composition half of the linearizable read fast path.
// The engine half (smr.ReadIndexer; for static Paxos, internal/paxos/read.go)
// yields a read index; this half decides whether the node may answer at all.
//
// The correctness core is fencing: a read is served under the configuration
// it was classified in (readCfg), and it must be refused the moment that
// configuration is wedged — whether the wedge arrived as the node's own
// reconfig decision, as an announce from a peer, or as a gossip-repaired
// chain record. A wedged configuration's state becomes the successor's
// initial state, and the successor may execute writes the old leader never
// sees; answering reads from the old configuration after that point would
// serve stale data as if it were current. The engine cannot know any of
// this (it is a black box that never learns about membership change), so
// the node re-checks the fence under its own lock every time a read is
// about to be answered.

// staleReadTicks is how many ticks a parked fast-path read may
// wait for the apply cursor to reach its index before it is rerouted
// through the log (which makes progress through leader forwarding even when
// this replica is stuck).
const staleReadTicks = 10

// readWaiter is one fast-path read whose index is confirmed but whose slot
// has not been applied locally yet.
type readWaiter struct {
	cfg     types.ConfigID
	index   types.Slot
	cmd     types.Command
	respond func([]byte)
	ticks   int
}

// tryFastReadLocked classifies cmd and, when it is a read-only op eligible
// for the fast path, hands it to the current engine's ReadIndex. It returns
// true when the read was taken over by the fast path (respond will be
// called later); false when the caller must use the log path. Caller holds
// n.mu; the lock is dropped and re-acquired around the ReadIndex call, so
// the caller must re-validate serving state when false is returned.
func (n *Node) tryFastReadLocked(cmd types.Command, respond func([]byte)) bool {
	if !n.machine.ReadOnly(cmd.Data) {
		return false
	}
	readCfg := n.curID
	if n.readFencedLocked(readCfg) {
		// Already wedged: refuse rather than serve; the redirect points the
		// client at the successor.
		n.stats.ReadFenced++
		respond(n.redirectReplyLocked())
		return true
	}
	run, ok := n.engines[readCfg]
	if !ok {
		return false
	}
	eng := run.eng
	// ReadIndex must run outside n.mu: its callback (and its shutdown
	// drain) re-acquires the node lock.
	n.mu.Unlock()
	err := eng.ReadIndex(func(index types.Slot, rerr error) {
		n.completeRead(readCfg, cmd, respond, index, rerr)
	})
	n.mu.Lock()
	if err != nil {
		return false // queue full or engine stopped: use the log path
	}
	return true
}

// completeRead finishes one fast-path read once the engine has confirmed a
// read index (or refused). It runs on the engine's event loop goroutine and
// must not block beyond taking n.mu.
func (n *Node) completeRead(readCfg types.ConfigID, cmd types.Command, respond func([]byte), index types.Slot, err error) {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	if err != nil {
		// The engine would not confirm leadership (follower, deposed, or
		// stopped). Fall back to the log path, which is correct from any
		// node: the proposal is forwarded to whoever leads now.
		n.stats.ReadFallbacks++
		n.fallbackReadLocked(cmd, respond)
		n.mu.Unlock()
		return
	}
	if n.readFencedLocked(readCfg) {
		n.stats.ReadFenced++
		resp := n.redirectReplyLocked()
		n.mu.Unlock()
		respond(resp)
		return
	}
	if n.appliedSlot >= index {
		resp := n.serveReadLocked(cmd)
		n.mu.Unlock()
		respond(resp)
		return
	}
	// Confirmed but not yet applied locally: park until the apply loop
	// reaches the index (or a wedge fences the configuration).
	n.readWaiters = append(n.readWaiters, &readWaiter{
		cfg: readCfg, index: index, cmd: cmd, respond: respond,
	})
	n.mu.Unlock()
}

// readFencedLocked reports whether fast-path reads classified under readCfg
// must be refused. The first clause is structural (the node moved on or has
// no valid state); the second is the wedge fence proper: any known chain
// record for readCfg means the configuration's log is sealed and its state
// has been handed to a successor, even if this node's own engine has not
// delivered the wedge yet.
func (n *Node) readFencedLocked(readCfg types.ConfigID) bool {
	if n.curID != readCfg || !n.initialized {
		return true
	}
	_, wedged := n.chain[readCfg]
	return wedged
}

// serveReadLocked answers a read from local state and builds the reply.
// execMu (shared) orders the read after any off-mutex apply segment in
// flight: by the time the apply cursor covers the read's index the commit
// ran under n.mu, so state at least that fresh — and never a half-applied
// batch — is what the read observes.
func (n *Node) serveReadLocked(cmd types.Command) []byte {
	n.execMu.RLock()
	reply := n.machine.ApplyRead(cmd.Data)
	n.execMu.RUnlock()
	n.stats.FastReads++
	return EncodeSubmitResult(SubmitResult{
		Status: SubmitApplied,
		Reply:  reply,
		Config: n.configs[n.curID],
		Leader: n.leaderHintLocked(),
	})
}

// redirectReplyLocked builds the redirect reply for a fenced read.
func (n *Node) redirectReplyLocked() []byte {
	return EncodeSubmitResult(SubmitResult{
		Status: SubmitRedirect,
		Config: n.configs[n.curID],
		Leader: n.leaderHintLocked(),
	})
}

// fallbackReadLocked reroutes a failed fast-path read through the log. If
// this node cannot serve at all it redirects instead.
func (n *Node) fallbackReadLocked(cmd types.Command, respond func([]byte)) {
	if !n.initialized || !n.configs[n.curID].IsMember(n.self) {
		respond(n.redirectReplyLocked())
		return
	}
	n.enqueueSubmitLocked(cmd, respond)
}

// serveReadyReadsLocked sweeps the parked read waiters: serve the ones
// whose index has been applied, fence the ones whose configuration wedged,
// keep the rest. Called after every apply batch, after snapshot install,
// and on every configuration transition.
func (n *Node) serveReadyReadsLocked() {
	if len(n.readWaiters) == 0 {
		return
	}
	keep := n.readWaiters[:0]
	for _, w := range n.readWaiters {
		switch {
		case n.readFencedLocked(w.cfg):
			n.stats.ReadFenced++
			w.respond(n.redirectReplyLocked())
		case n.appliedSlot >= w.index:
			w.respond(n.serveReadLocked(w.cmd))
		default:
			keep = append(keep, w)
		}
	}
	n.readWaiters = keep
}

// ageReadWaitersLocked is the tick's sweep: a read stuck beyond
// staleReadTicks (leadership confirmed but the apply cursor is not
// advancing, e.g. the leader lost its quorum right after the probe) is
// rerouted through the log so it shares the write path's retry machinery.
func (n *Node) ageReadWaitersLocked() {
	if len(n.readWaiters) == 0 {
		return
	}
	keep := n.readWaiters[:0]
	for _, w := range n.readWaiters {
		w.ticks++
		if w.ticks > staleReadTicks {
			n.stats.ReadFallbacks++
			n.fallbackReadLocked(w.cmd, w.respond)
			continue
		}
		keep = append(keep, w)
	}
	n.readWaiters = keep
}
