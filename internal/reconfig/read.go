package reconfig

import "repro/internal/types"

// This file is the composition half of the linearizable read fast path.
// The engine half (smr.ReadIndexer; for static Paxos, internal/paxos/read.go)
// yields a read index; this half decides whether the node may answer at all.
// All of it runs on the apply loop: a read is classified when the loop admits
// it, and the engine's index comes back through the loop's mailbox.
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
// the node re-checks the fence every time a read is about to be answered.

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

// tryFastRead classifies cmd and, when it is a read-only op eligible
// for the fast path, hands it to the current engine's ReadIndex, whose answer
// the loop takes from its mailbox (completeRead). It returns true when
// the read was taken over by the fast path (respond will be called later);
// false when the caller must use the log path. It runs on the loop; the
// callback only posts, so it may run inside ReadIndex, and when the mailbox is
// full it answers SubmitBusy at once, so no read goes unanswered.
func (n *Node) tryFastRead(cmd types.Command, respond func([]byte)) bool {
	if !n.machine.ReadOnly(cmd.Data) {
		return false
	}
	readCfg := n.curID
	if n.readFenced(readCfg) {
		// Already wedged: refuse rather than serve; the redirect points the
		// client at the successor.
		n.stats.ReadFenced++
		respond(n.redirectReply())
		return true
	}
	run, ok := n.engines[readCfg]
	if !ok {
		return false
	}
	err := run.eng.ReadIndex(func(index types.Slot, rerr error) {
		if !n.mailbox.TryPut(loopMsg{cmd: cmd, respond: respond, readCfg: readCfg, index: index, err: rerr}) {
			// A full mailbox: shed the read as admission sheds a command,
			// without the loop's state, which the engine's goroutine may not
			// read.
			respond(EncodeSubmitResult(SubmitResult{Status: SubmitBusy, RetryAfter: retryInterval}))
		}
	})
	return err == nil // a full queue or a stopped engine: use the log path
}

// completeRead finishes one fast-path read once the engine has
// confirmed a read index (or refused). It runs on the loop.
func (n *Node) completeRead(m loopMsg) {
	switch {
	case m.err != nil:
		// The engine would not confirm leadership (follower, deposed, or
		// stopped). Fall back to the log path, which is correct from any
		// node: the proposal is forwarded to whoever leads now.
		n.stats.ReadFallbacks++
		n.fallbackRead(m.cmd, m.respond)
	case n.readFenced(m.readCfg):
		n.stats.ReadFenced++
		m.respond(n.redirectReply())
	case n.appliedSlot >= m.index:
		m.respond(n.serveRead(m.cmd))
	default:
		// Confirmed but not yet applied locally: park until the apply loop
		// reaches the index (or a wedge fences the configuration).
		n.readWaiters = append(n.readWaiters, &readWaiter{
			cfg: m.readCfg, index: m.index, cmd: m.cmd, respond: m.respond,
		})
	}
}

// readFenced reports whether fast-path reads classified under readCfg
// must be refused. The first clause is structural (the node moved on or has
// no valid state); the second is the wedge fence proper: any known chain
// record for readCfg means the configuration's log is sealed and its state
// has been handed to a successor, even if this node's own engine has not
// delivered the wedge yet.
func (n *Node) readFenced(readCfg types.ConfigID) bool {
	if n.curID != readCfg || !n.initialized {
		return true
	}
	_, wedged := n.chain[readCfg]
	return wedged
}

// serveRead answers a read from local state and builds the reply. It
// runs on the loop, between segments, so the state it reads is exactly what
// the apply cursor covers.
func (n *Node) serveRead(cmd types.Command) []byte {
	n.stats.FastReads++
	return n.appliedReply(n.machine.ApplyRead(cmd.Data))
}

// redirectReply builds the redirect reply: to a fenced read, or to a
// command this node cannot take.
func (n *Node) redirectReply() []byte {
	return EncodeSubmitResult(SubmitResult{
		Status: SubmitRedirect,
		Config: n.configs[n.curID],
		Leader: n.LeaderHint(),
	})
}

// fallbackRead reroutes a failed fast-path read through the log. If
// this node cannot serve at all it redirects instead.
func (n *Node) fallbackRead(cmd types.Command, respond func([]byte)) {
	if !n.initialized || !n.configs[n.curID].IsMember(n.self) {
		respond(n.redirectReply())
		return
	}
	n.enqueueSubmit(cmd, respond)
}

// serveReadyReads sweeps the parked read waiters: serve the ones
// whose index has been applied, fence the ones whose configuration wedged,
// keep the rest. Called after every apply batch, after snapshot install,
// and on every configuration transition.
func (n *Node) serveReadyReads() {
	if len(n.readWaiters) == 0 {
		return
	}
	keep := n.readWaiters[:0]
	for _, w := range n.readWaiters {
		switch {
		case n.readFenced(w.cfg):
			n.stats.ReadFenced++
			w.respond(n.redirectReply())
		case n.appliedSlot >= w.index:
			w.respond(n.serveRead(w.cmd))
		default:
			keep = append(keep, w)
		}
	}
	n.readWaiters = keep
}

// ageReadWaiters is the tick's sweep: a read stuck beyond
// staleReadTicks (leadership confirmed but the apply cursor is not
// advancing, e.g. the leader lost its quorum right after the probe) is
// rerouted through the log so it shares the write path's retry machinery.
func (n *Node) ageReadWaiters() {
	if len(n.readWaiters) == 0 {
		return
	}
	keep := n.readWaiters[:0]
	for _, w := range n.readWaiters {
		w.ticks++
		if w.ticks > staleReadTicks {
			n.stats.ReadFallbacks++
			n.fallbackRead(w.cmd, w.respond)
			continue
		}
		keep = append(keep, w)
	}
	n.readWaiters = keep
}
