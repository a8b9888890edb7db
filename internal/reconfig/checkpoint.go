package reconfig

// Within-configuration checkpoints: when to publish one, the quorum-gated
// log-truncation driver, and when a member is far enough behind to fetch one.
// The snapshot itself moves through the one pipeline in xfer.go — a
// checkpoint is a snapshot of the current configuration with base > 0.
//
// A configuration that lives long enough accumulates an unbounded engine log
// and forces a restarted or lagging member to replay it slot by slot. The
// producer periodically forks a copy-on-write snapshot of the machine at
// applied slot S (O(shards) under the node mutex, like the wedge capture) and
// publishes it with Base=S over the configuration's rc/snap/<id> blob — the
// same one a joiner fetches its initial state from.
//
// Truncation is gated on quorum durability: members exchange their newest
// durable checkpoint base via opCkptAnnounce/opCkptAck (the ack carries the
// receiver's own base, so one exchange teaches both sides), and each member
// truncates its engine below min(quorum-th largest base, own base) − margin.
// The self clamp keeps restart recovery self-contained (the local snapshot
// covers everything the local log no longer holds); the quorum clamp keeps
// the checkpoint fetchable — a laggard must find the state somewhere after
// the log stops serving it. Slots at or below any member's base were applied
// there, hence globally chosen, which is what makes the engine-level
// truncation floor safe for an engine to act on (static Paxos exchanges it
// in promises).

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/types"
)

// ckptAnnounceTicks is how many ticks pass between periodic
// re-announces of this member's newest durable checkpoint base (the repair
// path for lost announce RPCs, and how a healed member learns it may
// truncate).
const ckptAnnounceTicks = 10

// --- wire messages ----------------------------------------------------------

// ckptMsg is both the announce and the ack payload: "my newest durable
// checkpoint of Config has base Base". Base 0 means none yet.
type ckptMsg struct {
	Config types.ConfigID
	Base   types.Slot
}

func encodeCkptAnnounce(m ckptMsg) []byte {
	w := types.NewWriter(20)
	w.Byte(opCkptAnnounce)
	w.Uvarint(uint64(m.Config))
	w.Uvarint(uint64(m.Base))
	return w.Bytes()
}

func decodeCkptAnnounce(buf []byte) (ckptMsg, error) {
	if len(buf) == 0 || buf[0] != opCkptAnnounce {
		return ckptMsg{}, fmt.Errorf("%w: not a ckpt announce", types.ErrCodec)
	}
	return decodeCkptBody(buf[1:], "ckpt announce")
}

func encodeCkptAck(m ckptMsg) []byte {
	w := types.NewWriter(20)
	w.Byte(opCkptAck)
	w.Uvarint(uint64(m.Config))
	w.Uvarint(uint64(m.Base))
	return w.Bytes()
}

func decodeCkptAck(buf []byte) (ckptMsg, error) {
	if len(buf) == 0 || buf[0] != opCkptAck {
		return ckptMsg{}, fmt.Errorf("%w: not a ckpt ack", types.ErrCodec)
	}
	return decodeCkptBody(buf[1:], "ckpt ack")
}

func decodeCkptBody(body []byte, what string) (ckptMsg, error) {
	r := types.NewReader(body)
	m := ckptMsg{Config: types.ConfigID(r.Uvarint()), Base: types.Slot(r.Uvarint())}
	if err := r.Err(); err != nil {
		return ckptMsg{}, fmt.Errorf("%s: %w", what, err)
	}
	if r.Remaining() != 0 {
		return ckptMsg{}, fmt.Errorf("%w: trailing bytes in %s", types.ErrCodec, what)
	}
	return m, nil
}

// --- base tracking ----------------------------------------------------------

// ckptTrackLocked resets the checkpoint-base bookkeeping when the
// configuration has moved on; bases never carry across configurations (the
// successor's log starts fresh). Caller holds mu.
func (n *Node) ckptTrackLocked() {
	if n.ckptCfg == n.curID {
		return
	}
	n.ckptCfg = n.curID
	n.ckptSelfBase = 0
	n.ckptPeerBase = make(map[types.NodeID]types.Slot)
}

// noteDurableBaseLocked adopts base as this member's newest durable
// checkpoint base of the current configuration. Caller holds mu.
func (n *Node) noteDurableBaseLocked(base types.Slot) {
	n.ckptTrackLocked()
	if base > n.ckptSelfBase {
		n.ckptSelfBase = base
	}
}

// noteCkptPeer records a peer's announced/acked checkpoint base and
// re-evaluates truncation.
func (n *Node) noteCkptPeer(from types.NodeID, id types.ConfigID, base types.Slot) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped || id != n.curID || base == 0 {
		return
	}
	n.ckptTrackLocked()
	if base > n.ckptPeerBase[from] {
		n.ckptPeerBase[from] = base
	}
	n.maybeTruncateLocked()
}

// handleCkptAnnounce integrates a peer's checkpoint announce and replies with
// our own newest base, making the exchange symmetric.
func (n *Node) handleCkptAnnounce(from types.NodeID, m ckptMsg, respond func([]byte)) {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	ack := ckptMsg{Config: n.curID}
	if m.Config == n.curID {
		n.ckptTrackLocked()
		if m.Base > n.ckptPeerBase[from] {
			n.ckptPeerBase[from] = m.Base
		}
		ack.Base = n.ckptSelfBase
		n.maybeTruncateLocked()
	}
	n.mu.Unlock()
	respond(encodeCkptAck(ack))
}

// broadcastCkpt sends one announce to each recipient and folds the acked
// bases back in. Best-effort; the periodic re-announce covers losses.
func (n *Node) broadcastCkpt(members []types.NodeID, body []byte) {
	for _, m := range members {
		if m == n.self {
			continue
		}
		to := m
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			ctx, cancel := context.WithTimeout(n.baseCtx, 500*time.Millisecond)
			defer cancel()
			resp, err := n.peer.Call(ctx, to, body, 0)
			if err != nil {
				return
			}
			if ack, err := decodeCkptAck(resp); err == nil {
				n.noteCkptPeer(to, ack.Config, ack.Base)
			}
		}()
	}
}

// --- producer ---------------------------------------------------------------

// maybeCheckpointLocked publishes a checkpoint when the applied cursor has
// advanced checkpointInterval slots past the newest durable one and no other
// publish is in flight. Caller holds mu (the tick).
func (n *Node) maybeCheckpointLocked() {
	if n.opts.NoCheckpoints || n.stopped || !n.initialized || n.publishing > 0 {
		return
	}
	if !n.configs[n.curID].IsMember(n.self) {
		return
	}
	n.ckptTrackLocked()
	if n.appliedSlot < n.ckptSelfBase+types.Slot(n.opts.checkpointInterval) {
		return
	}
	// Fork under mu + execMu (shared): applySegment holds execMu exclusively
	// while it applies a segment, so the fork never observes a half-applied
	// one. The machine may already contain a segment whose commit (the
	// appliedSlot advance) is still waiting on mu; Base then under-claims by
	// one segment, and replaying those commands over the checkpoint is
	// idempotent through session dedup.
	n.execMu.RLock()
	src := n.machine.ForkSnapshot()
	n.execMu.RUnlock()
	n.publishAsyncLocked(n.curID, n.appliedSlot, src)
}

// --- truncation -------------------------------------------------------------

// maybeTruncateLocked releases engine log state below
// min(quorum-th largest checkpoint base, own base) − margin. The self clamp
// keeps restart recovery self-contained; the quorum clamp keeps truncated
// slots fetchable as checkpoints by laggards; the margin keeps a small tail
// of recent slots serveable through the ordinary engine catch-up, so a
// briefly lagging member never pays a full state transfer. Caller holds mu.
func (n *Node) maybeTruncateLocked() {
	if n.opts.NoCheckpoints || n.stopped {
		return
	}
	cfg := n.configs[n.curID]
	run, ok := n.engines[n.curID]
	if !ok || !cfg.IsMember(n.self) {
		return
	}
	n.ckptTrackLocked()
	if n.ckptSelfBase == 0 {
		return
	}
	bases := make([]types.Slot, 0, len(cfg.Members))
	for _, m := range cfg.Members {
		if m == n.self {
			bases = append(bases, n.ckptSelfBase)
		} else {
			bases = append(bases, n.ckptPeerBase[m]) // zero when unknown
		}
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] > bases[j] })
	quorumBase := bases[len(cfg.Members)/2] // quorum-th largest
	floor := quorumBase
	if n.ckptSelfBase < floor {
		floor = n.ckptSelfBase
	}
	margin := types.Slot(n.opts.checkpointMargin)
	if floor <= margin {
		return
	}
	run.eng.TruncateBelow(floor - margin)
}

// --- catch-up ---------------------------------------------------------------

// behindLocked reports whether this initialized member should fetch a
// checkpoint instead of replaying the log: the engine's contiguous decided
// frontier (one O(1) Progress read, not a slot-by-slot probe) is
// catchupGapSlots or more ahead of the applied cursor, or a peer redirected
// the engine below its truncation floor. Caller holds mu.
func (n *Node) behindLocked() bool {
	run, ok := n.engines[n.curID]
	if n.opts.NoCheckpoints || !ok {
		return false
	}
	p := run.eng.Progress()
	return p.CheckpointNeeded || p.MaxDecidedSeen >= n.appliedSlot+types.Slot(n.opts.catchupGapSlots)
}
