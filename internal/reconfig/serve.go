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
// nothing parks between the socket and Propose.
//
// opSubmit therefore runs inline — decode, handleSubmit, Propose, none of
// which waits on anything but n.mu. Every other op may wait for the chain to
// advance or touch the store, and gets its own goroutine.
func (n *Node) handleRPC(from types.NodeID, req []byte, respond func([]byte)) {
	if len(req) == 0 {
		return
	}
	if req[0] != opSubmit {
		go n.serveControl(from, req, respond)
		return
	}
	cmd, err := types.DecodeCommand(req[1:])
	if err != nil {
		return
	}
	n.handleSubmit(cmd, respond)
}

// serveControl serves the ops that may block: reconfiguration, chain and
// checkpoint gossip, discovery and snapshot transfer.
func (n *Node) serveControl(from types.NodeID, req []byte, respond func([]byte)) {
	switch req[0] {
	case opLocate:
		n.mu.Lock()
		reply := LocateResult{
			Config: n.configs[n.curID],
			Wedged: func() bool { _, ok := n.chain[n.curID]; return ok }(),
			Leader: n.leaderHintLocked(),
		}
		n.mu.Unlock()
		respond(encodeLocateReply(reply))
	case opSnapMeta:
		r := types.NewReader(req[1:])
		id := types.ConfigID(r.Uvarint())
		if r.Err() != nil {
			return
		}
		m, ok := n.snapManifest(id)
		reply := snapMetaReply{Found: ok, Format: m.Format, Base: m.Base, CRCs: m.CRCs}
		if ok {
			// Piggyback the leading chunks: on a loaded control plane every
			// round trip pays a full dispatch-queue traversal, so a small
			// snapshot should transfer in the manifest round trip itself.
			reply.Chunks = n.snapChunkRange(id, 0, m.Chunks())
		}
		respond(encodeSnapMetaReply(reply))
	case opSnapChunk:
		r := types.NewReader(req[1:])
		id := types.ConfigID(r.Uvarint())
		first := int(r.Uvarint())
		count := int(r.Uvarint())
		if r.Err() != nil {
			return
		}
		respond(encodeSnapChunkReply(snapChunkReply{Chunks: n.snapChunkRange(id, first, count)}))
	case opAnnounce:
		rec, err := decodeChainRecord(req[1:])
		if err != nil {
			return
		}
		n.handleAnnounce(rec)
		respond(encodeAnnounceAck())
	case opReconfig:
		r := types.NewReader(req[1:])
		members := r.NodeIDs()
		if r.Err() != nil {
			return
		}
		ctx, cancel := context.WithTimeout(n.baseCtx, 30*time.Second)
		defer cancel()
		cfg, err := n.Reconfigure(ctx, members)
		reply := ReconfigResult{OK: err == nil, Config: cfg}
		if err != nil {
			reply.Detail = err.Error()
		}
		respond(encodeReconfigReply(reply))
	case opChain:
		recs := n.ChainRecords()
		n.mu.Lock()
		init := n.initConfig
		n.mu.Unlock()
		respond(encodeChainReply(ChainResult{Initial: init, Records: recs}))
	case opCkptAnnounce:
		m, err := decodeCkptAnnounce(req)
		if err != nil {
			return
		}
		n.handleCkptAnnounce(from, m, respond)
	}
}

// handleSubmit services one client command: dedup fast path, or register a
// pending waiter and propose into the current engine.
func (n *Node) handleSubmit(cmd types.Command, respond func([]byte)) {
	if cmd.Kind != types.CmdApp || cmd.Client == "" || cmd.Seq == 0 {
		return // malformed; client library never sends this
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return
	}
	cur := n.configs[n.curID]
	if !cur.IsMember(n.self) {
		respond(EncodeSubmitResult(SubmitResult{
			Status: SubmitRedirect,
			Config: cur,
			Leader: n.leaderHintLocked(),
		}))
		return
	}
	if !n.initialized {
		if !n.speculationOn() {
			respond(EncodeSubmitResult(SubmitResult{
				Status: SubmitRedirect,
				Config: cur,
				Leader: n.leaderHintLocked(),
			}))
			return
		}
		// Speculative accept: this member's snapshot is still in flight, but
		// its engine can already order commands (speculative start). Propose
		// now and leave the reply parked: the decision buffers until the
		// install, the post-install apply answers the waiter, and session
		// dedup squashes commands the snapshot already contains. Without this
		// a full member replacement has no one to propose to until the first
		// install completes — exactly the window speculation exists to close.
		// The dedup and fast-read checks below need machine state we do not
		// have yet; both remain correct at apply time.
		if !n.admitSubmitLocked(cmd) {
			respond(n.busyReplyLocked())
			return
		}
		n.enqueueSubmitLocked(cmd, respond)
		return
	}
	// Duplicate of an already-executed command: answer from the session
	// table without touching the log. execMu (shared) keeps the session
	// lookup from racing an off-mutex apply segment.
	n.execMu.RLock()
	isDup := cmd.Seq <= n.machine.LastSeq(cmd.Client)
	var dupReply []byte
	if isDup {
		dupReply, _ = n.machine.ApplyCommand(cmd) // dedup path: no mutation
	}
	n.execMu.RUnlock()
	if isDup {
		respond(EncodeSubmitResult(SubmitResult{
			Status: SubmitApplied,
			Reply:  dupReply,
			Config: cur,
			Leader: n.leaderHintLocked(),
		}))
		return
	}
	// Read-only fast path: serve linearizable reads without a log append.
	// tryFastReadLocked may drop and re-acquire n.mu around the engine
	// call, so the serving state is re-validated below when it declines.
	if n.tryFastReadLocked(cmd, respond) {
		return
	}
	if n.stopped {
		return
	}
	if !n.initialized || !n.configs[n.curID].IsMember(n.self) {
		respond(n.redirectReplyLocked())
		return
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

// gossipPeerLocked picks a peer from all configurations this node knows.
func (n *Node) gossipPeerLocked() types.NodeID {
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

// gossipChain pushes our newest record to a peer and pulls its chain,
// merging anything new.
func (n *Node) gossipChain(to types.NodeID, push []byte) {
	if push != nil {
		pctx, pcancel := context.WithTimeout(n.baseCtx, fetchTimeout)
		_, _ = n.peer.Call(pctx, to, push, 0)
		pcancel()
	}
	ctx, cancel := context.WithTimeout(n.baseCtx, fetchTimeout)
	defer cancel()
	resp, err := n.peer.Call(ctx, to, EncodeChainRequest(), 0)
	if err != nil {
		return
	}
	cr, err := DecodeChainResult(resp)
	if err != nil {
		return
	}
	n.learnChain(cr.Initial, cr.Records...)
}

// fetchSourcesLocked lists peers likely to hold the initial snapshot of id:
// the predecessor configuration's members (they computed it at the wedge)
// and the configuration's own members (they may have installed it already).
func (n *Node) fetchSourcesLocked(id types.ConfigID) []types.NodeID {
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
	for from, rec := range n.chain {
		if rec.To.ID == id {
			add(rec.FromMembers)
			add(n.configs[from].Members)
		}
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
// result. It is the in-process equivalent of the client library's RPC.
func (n *Node) Submit(ctx context.Context, client types.NodeID, seq uint64, op []byte) ([]byte, error) {
	cmd := types.Command{Kind: types.CmdApp, Client: client, Seq: seq, Data: op}
	ch := make(chan []byte, 1)
	n.handleSubmit(cmd, func(resp []byte) {
		select {
		case ch <- resp:
		default:
		}
	})
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
// it returns the new configuration; if a racing reconfiguration won the same
// chain position it returns that winner and ErrConflict.
func (n *Node) Reconfigure(ctx context.Context, members []types.NodeID) (types.Config, error) {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return types.Config{}, ErrStopped
	}
	origID := n.curID
	cur := n.configs[origID]
	if !n.initialized || !cur.IsMember(n.self) {
		n.mu.Unlock()
		return types.Config{}, ErrNotServing
	}
	newCfg, err := types.NewConfig(origID+1, members)
	if err != nil {
		n.mu.Unlock()
		return types.Config{}, err
	}
	cmd := types.ReconfigCommand(newCfg)
	n.mu.Unlock()

	ticker := time.NewTicker(retryInterval * 2)
	defer ticker.Stop()
	for {
		n.mu.Lock()
		if n.curID > origID {
			won := n.configs[newCfg.ID]
			n.mu.Unlock()
			if won.Equal(newCfg) {
				return newCfg, nil
			}
			return won, ErrConflict
		}
		waiter := n.transitionWaiterLocked()
		run := n.engines[origID]
		n.mu.Unlock()

		if run != nil {
			_ = run.eng.Propose(cmd)
		}
		select {
		case <-waiter:
		case <-ticker.C:
		case <-ctx.Done():
			return types.Config{}, ctx.Err()
		case <-n.stopCh:
			return types.Config{}, ErrStopped
		}
	}
}

// WaitServing blocks until the node is an initialized member of the current
// configuration, or ctx expires.
func (n *Node) WaitServing(ctx context.Context) error {
	for {
		n.mu.Lock()
		if n.initialized && n.configs[n.curID].IsMember(n.self) {
			n.mu.Unlock()
			return nil
		}
		waiter := n.transitionWaiterLocked()
		n.mu.Unlock()
		select {
		case <-waiter:
		case <-time.After(retryInterval):
		case <-ctx.Done():
			return ctx.Err()
		case <-n.stopCh:
			return ErrStopped
		}
	}
}
