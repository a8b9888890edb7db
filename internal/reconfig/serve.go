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
// opSubmit is therefore posted to the apply loop's mailbox, which admits it
// (drainMailboxLocked): one TryPut that neither waits nor takes n.mu, and a
// full mailbox drops the command as a lost frame is dropped. Every other op
// may wait for the chain to advance or touch the store, and gets its own
// goroutine.
func (n *Node) handleRPC(_ types.NodeID, req []byte, respond func([]byte)) {
	if len(req) == 0 {
		return
	}
	if req[0] != opSubmit {
		go n.serveControl(req, respond)
		return
	}
	if cmd, err := types.DecodeCommand(req[1:]); err == nil {
		n.mailbox.TryPut(loopMsg{cmd: cmd, respond: respond})
	}
}

// serveControl serves the ops that may block: reconfiguration, chain gossip,
// discovery and snapshot transfer.
func (n *Node) serveControl(req []byte, respond func([]byte)) {
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
		// A bare request is a client's, for the whole chain; gossip names the
		// newest configuration the asker's chain reaches and gets only the
		// records after it.
		var since types.ConfigID
		if len(req) > 1 {
			r := types.NewReader(req[1:])
			if since = types.ConfigID(r.Uvarint()); r.Err() != nil {
				return
			}
		}
		n.mu.Lock()
		reply := ChainResult{Initial: n.initConfig, Records: n.chainSinceLocked(since)}
		n.mu.Unlock()
		respond(encodeChainReply(reply))
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
	n.learnChain(cr.Initial, cr.Records...)
}

// fetchSourcesLocked lists peers likely to hold the initial snapshot of id:
// the predecessor configuration's members (they computed it at the wedge)
// and the configuration's own members (they may have installed it already).
// Both come from the one chain record that names id as a successor, the
// predecessor's, which a node learns before it can act in id; so the list does
// not change once the transfer of id is launched.
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
		for n.curID > origID {
			won, prev := n.configs[origID+1], n.configs[origID]
			if won.Equal(newCfg) {
				n.mu.Unlock()
				return newCfg, nil
			}
			if !won.Equal(types.Config{ID: won.ID, Members: prev.Members}) {
				n.mu.Unlock()
				return won, ErrConflict
			}
			origID++
			newCfg.ID = origID + 1
			cmd = types.ReconfigCommand(newCfg)
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
