package reconfig

import (
	"context"
	"fmt"
	"time"

	"repro/internal/types"
)

// handleRPC dispatches control-plane requests. It runs on the goroutine that
// delivered the request (rpc.Handler), which on the TCP fabric is the reader
// of the sender's connection, so it must not wait: a client's submits reach
// the engine's proposal queue in the clump they left the client in only if
// nothing parks between the socket and the loop that proposes them.
//
// Every op is therefore decoded here, since req is a view of the frame, and
// posted to the apply loop's mailbox with one TryPut that never waits. The
// loop admits a submit (drainMailbox) and answers every other op itself,
// except a snapshot read from the store, which it hands to a goroutine
// (serveSnap); a reconfiguration waits on the loop as a waiter, not on a
// goroutine (reconfigure). A full mailbox drops the request as a lost frame
// is dropped: the asker's retransmission, timeout or next round covers it.
func (n *Node) handleRPC(_ types.NodeID, req []byte, respond func([]byte)) {
	if len(req) == 0 {
		return
	}
	if req[0] == opSubmit {
		if cmd, err := types.DecodeCommand(req[1:]); err == nil {
			n.mailbox.TryPut(loopMsg{cmd: cmd, respond: respond})
		}
		return
	}
	r := types.NewReader(req[1:])
	var f func()
	switch req[0] {
	case opLocate:
		f = func() {
			_, wedged := n.chain[n.curID]
			respond(encodeLocateReply(LocateResult{Config: n.configs[n.curID], Wedged: wedged, Leader: n.LeaderHint()}))
		}
	case opSnapMeta:
		id := types.ConfigID(r.Uvarint())
		f = func() { n.serveSnap(id, -1, 0, respond) }
	case opSnapChunk:
		id := types.ConfigID(r.Uvarint())
		first, count := int(r.Uvarint()), int(r.Uvarint())
		if first < 0 {
			first, count = 0, 0 // past any chunk index: an empty reply
		}
		f = func() { n.serveSnap(id, first, count, respond) }
	case opAnnounce:
		rec, err := decodeChainRecord(req[1:])
		if err != nil {
			return
		}
		f = func() {
			n.integrate(types.Config{}, rec)
			respond(encodeAnnounceAck())
		}
	case opReconfig:
		members := r.NodeIDs()
		f = func() {
			ctx, cancel := context.WithTimeout(n.baseCtx, 30*time.Second)
			n.reconfigure(ctx, members, func(cfg types.Config, err error) {
				cancel()
				reply := ReconfigResult{OK: err == nil, Config: cfg}
				if err != nil {
					reply.Detail = err.Error()
				}
				respond(encodeReconfigReply(reply))
			})
		}
	case opChain:
		// A bare request is a client's, for the whole chain; gossip names the
		// newest configuration the asker's chain reaches and gets only the
		// records after it.
		var since types.ConfigID
		if len(req) > 1 {
			since = types.ConfigID(r.Uvarint())
		}
		f = func() { respond(encodeChainReply(ChainResult{Initial: n.initConfig, Records: n.chainSince(since)})) }
	default:
		return
	}
	if r.Err() == nil {
		n.mailbox.TryPut(loopMsg{f: f})
	}
}

// gossipPeer picks a peer from all configurations this node knows.
func (n *Node) gossipPeer() types.NodeID {
	seen := map[types.NodeID]bool{n.self: true}
	var peers []types.NodeID
	for _, cfg := range n.configs {
		for _, m := range cfg.Members {
			if !seen[m] {
				seen[m] = true
				peers = append(peers, m)
			}
		}
	}
	if len(peers) == 0 {
		return ""
	}
	// Round-robin so every peer is covered within len(peers) rounds.
	types.SortNodeIDs(peers)
	n.gossipSeq++
	return peers[n.gossipSeq%len(peers)]
}

// gossipChain pushes our newest record to a peer and pulls the records of its
// chain after since, the newest configuration our own chain reaches, merging
// them.
func (n *Node) gossipChain(to types.NodeID, push []byte, since types.ConfigID) {
	if push != nil {
		pctx, pcancel := context.WithTimeout(n.baseCtx, fetchTimeout)
		_, _ = n.peer.Call(pctx, to, push, 0)
		pcancel()
	}
	ctx, cancel := context.WithTimeout(n.baseCtx, fetchTimeout)
	defer cancel()
	resp, err := n.peer.Call(ctx, to, encodeChainRequestSince(since), 0)
	if err != nil {
		return
	}
	cr, err := DecodeChainResult(resp)
	if err != nil {
		return
	}
	// The loop integrates what the peer knows before the exchange ends.
	n.onLoop(func() { n.integrate(cr.Initial, cr.Records...) })
}

// fetchSources lists peers likely to hold the initial snapshot of id:
// the predecessor configuration's members (they computed it at the wedge)
// and the configuration's own members (they may have installed it already).
// Both come from the one chain record that names id as a successor, the
// predecessor's, which a node learns before it can act in id; so the list does
// not change once the transfer of id is launched.
func (n *Node) fetchSources(id types.ConfigID) []types.NodeID {
	seen := map[types.NodeID]bool{n.self: true}
	var out []types.NodeID
	add := func(ids []types.NodeID) {
		for _, m := range ids {
			if !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		}
	}
	if rec, ok := n.chain[id-1]; ok && rec.To.ID == id {
		add(rec.FromMembers)
		add(n.configs[id-1].Members)
	}
	add(n.configs[id].Members)
	return out
}

// sendAnnounce fires one best-effort announce RPC without blocking the
// caller; losses are repaired by discovery and the stale-jump path.
func (n *Node) sendAnnounce(to types.NodeID, body []byte) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		ctx, cancel := context.WithTimeout(n.baseCtx, 500*time.Millisecond)
		defer cancel()
		_, _ = n.peer.Call(ctx, to, body, 0)
	}()
}

// Submit executes one client command through this node and waits for the
// result. It is the in-process equivalent of the client library's RPC; a full
// mailbox, which drops an RPC's command, fails it with ErrBusy at once.
func (n *Node) Submit(ctx context.Context, client types.NodeID, seq uint64, op []byte) ([]byte, error) {
	cmd := types.Command{Kind: types.CmdApp, Client: client, Seq: seq, Data: op}
	ch := make(chan []byte, 1)
	if !n.mailbox.TryPut(loopMsg{cmd: cmd, respond: func(resp []byte) {
		select {
		case ch <- resp:
		default:
		}
	}}) {
		return nil, fmt.Errorf("%w: mailbox full", ErrBusy)
	}
	select {
	case resp := <-ch:
		sr, err := DecodeSubmitResult(resp)
		if err != nil {
			return nil, err
		}
		switch sr.Status {
		case SubmitApplied:
			return sr.Reply, nil
		case SubmitRedirect:
			return nil, fmt.Errorf("%w: current is %s", ErrNotServing, sr.Config)
		case SubmitBusy:
			return nil, fmt.Errorf("%w: retry after %s", ErrBusy, sr.RetryAfter)
		default:
			return nil, fmt.Errorf("reconfig: unknown submit status %d", sr.Status)
		}
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-n.stopCh:
		return nil, ErrStopped
	}
}

// Reconfigure proposes replacing the current configuration's member set and
// waits until the configuration chain advances past the proposal. On success
// it returns the new configuration. A wedge at the log bound that takes the
// chain position first — recognized by a winner with its predecessor's
// members — does not count against it: the proposal is made again at the next
// position. If another reconfiguration won, it returns that winner and
// ErrConflict.
func (n *Node) Reconfigure(ctx context.Context, members []types.NodeID) (types.Config, error) {
	type result struct {
		cfg types.Config
		err error
	}
	done := make(chan result, 1)
	if !n.post(func() {
		n.reconfigure(ctx, members, func(cfg types.Config, err error) { done <- result{cfg, err} })
	}) {
		return types.Config{}, ErrStopped
	}
	select {
	case r := <-done:
		return r.cfg, r.err
	case <-ctx.Done():
		return types.Config{}, ctx.Err() // the loop drops the waiter at its next tick
	case <-n.stopCh:
		return types.Config{}, ErrStopped
	}
}

// reconfigWaiter is a Reconfigure the loop holds until the chain advances past
// its proposal, whose ID is its chain position: it is proposed in
// configuration ID-1. answer is called once, on the loop.
type reconfigWaiter struct {
	ctx      context.Context
	proposal types.Config
	answer   func(types.Config, error)
}

// reconfigure validates a Reconfigure, proposes it into the current engine and
// holds it until the transition that decides it (settleReconfigs), its
// context's end or the loop's exit (retryReconfigs, exit). It runs on the
// loop.
func (n *Node) reconfigure(ctx context.Context, members []types.NodeID, answer func(types.Config, error)) {
	if n.stopping() {
		answer(types.Config{}, ErrStopped)
		return
	}
	if !n.initialized || !n.configs[n.curID].IsMember(n.self) {
		answer(types.Config{}, ErrNotServing)
		return
	}
	proposal, err := types.NewConfig(n.curID+1, members)
	if err != nil {
		answer(types.Config{}, err)
		return
	}
	w := &reconfigWaiter{ctx: ctx, proposal: proposal, answer: answer}
	n.reconfigs = append(n.reconfigs, w)
	n.proposeReconfig(w)
}

// proposeReconfig proposes w into the engine of the configuration its
// position follows, when one runs here.
func (n *Node) proposeReconfig(w *reconfigWaiter) {
	if run, ok := n.engines[w.proposal.ID-1]; ok {
		_ = run.eng.Propose(types.ReconfigCommand(w.proposal))
	}
}

// settleReconfigs is every transition's turn of the Reconfigure waiters: one
// whose position the chain has passed is answered — its own proposal won, or
// another membership did (ErrConflict) — except when a bound wedge, a winner
// with its predecessor's members, took the position: then it is proposed
// again at the next one. It runs on the loop.
func (n *Node) settleReconfigs() {
	n.filterReconfigs(func(w *reconfigWaiter) bool {
		if n.curID < w.proposal.ID {
			return true
		}
		for ; n.curID >= w.proposal.ID; w.proposal.ID++ {
			won, prev := n.configs[w.proposal.ID], n.configs[w.proposal.ID-1]
			if won.Equal(w.proposal) {
				w.answer(w.proposal, nil)
				return false
			}
			if !won.Equal(types.Config{ID: won.ID, Members: prev.Members}) {
				w.answer(won, ErrConflict)
				return false
			}
		}
		n.proposeReconfig(w)
		return true
	})
}

// retryReconfigs is the tick's turn of the Reconfigure waiters: one whose
// context has ended is answered with its error and dropped, and every other
// is proposed again every reconfigRetryTicks. It runs on the loop.
func (n *Node) retryReconfigs() {
	n.filterReconfigs(func(w *reconfigWaiter) bool {
		if err := w.ctx.Err(); err != nil {
			w.answer(types.Config{}, err)
			return false
		}
		if n.tick%reconfigRetryTicks == 0 {
			n.proposeReconfig(w)
		}
		return true
	})
}

// reconfigRetryTicks is how many ticks pass between re-proposals of a waiting
// Reconfigure.
const reconfigRetryTicks = 2

// filterReconfigs keeps the Reconfigure waiters for which wait reports true.
func (n *Node) filterReconfigs(wait func(*reconfigWaiter) bool) {
	keep := n.reconfigs[:0]
	for _, w := range n.reconfigs {
		if wait(w) {
			keep = append(keep, w)
		}
	}
	clear(n.reconfigs[len(keep):])
	n.reconfigs = keep
}
