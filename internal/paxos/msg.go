// Package paxos implements the static, non-reconfigurable Multi-Paxos SMR
// engine used as the paper's building block. One engine instance serves
// exactly one configuration for that configuration's whole lifetime: the
// member set is fixed at construction and there is deliberately no API to
// change it.
//
// The engine is a classic Multi-Paxos:
//
//   - a stable leader is elected by running phase 1 (Prepare/Promise) once
//     for all slots from its first unchosen slot onward;
//   - each command then takes one phase-2 round (Accept/Accepted) followed
//     by a Decide broadcast to learners, which names the slot and ballot and
//     lets each acceptor learn the command from its own accepted entry;
//   - followers detect leader failure via heartbeats and run a randomized
//     backoff before competing, avoiding dueling-proposer livelock;
//   - learners deliver decisions in slot order with no gaps and fetch
//     missing entries from peers (catch-up) when they observe holes.
//
// Acceptor state (promise, accepted values) and decided entries are written
// to stable storage before replies are sent, so a crashed-and-restarted
// replica cannot renege on its promises.
package paxos

import (
	"fmt"

	"repro/internal/types"
)

// Message kinds on the wire (transport accounting groups by these).
const (
	// KindPrepare is phase-1a: a candidate leader solicits promises.
	KindPrepare uint8 = 1
	// KindPromise is phase-1b: an acceptor's promise plus its accepted
	// suffix.
	KindPromise uint8 = 2
	// KindAccept is phase-2a: the leader proposes a value for a slot.
	KindAccept uint8 = 3
	// KindAccepted is phase-2b: an acceptor's vote.
	KindAccepted uint8 = 4
	// KindDecide announces a chosen value to learners.
	KindDecide uint8 = 5
	// KindHeartbeat is the leader's liveness beacon.
	KindHeartbeat uint8 = 6
	// KindCatchupReq asks a peer for decided entries in a slot range.
	KindCatchupReq uint8 = 7
	// KindCatchupResp returns decided entries.
	KindCatchupResp uint8 = 8
	// KindForward relays a client proposal to the believed leader.
	KindForward uint8 = 9
	// KindReadProbe is the leader's read-index leadership confirmation:
	// "am I still your leader?" for a batch of pending reads.
	KindReadProbe uint8 = 10
	// KindReadProbeAck answers a read probe.
	KindReadProbeAck uint8 = 11
	// Kind 12 is retired (the leader-lease heartbeat ack).
)

// prepareMsg solicits promises for all slots >= From.
type prepareMsg struct {
	Ballot types.Ballot
	From   types.Slot
}

// acceptedEntry is one accepted (slot, ballot, command) triple. It has one
// encoding, slot|ballot|cmd (encodeAccept), which is the durable acc/<slot>
// record and the KindAccept payload alike: the leader builds it once and hands
// the same bytes to the broadcast, to its own store and to the resend tick; an
// acceptor checks the payload it received and stores it as it is. Cmd.Data is
// a view of those bytes wherever the entry was decoded from them.
type acceptedEntry struct {
	Slot   types.Slot
	Ballot types.Ballot
	Cmd    types.Command
}

// promiseMsg answers a prepare. When OK, Accepted lists this acceptor's
// accepted entries at slots >= the prepare's From. When not OK, Promised
// carries the higher ballot that blocked the prepare.
type promiseMsg struct {
	Ballot   types.Ballot // the prepare's ballot being answered
	OK       bool
	Promised types.Ballot // on reject: the ballot we are bound to
	Accepted []acceptedEntry
	Decided  types.Slot // highest contiguously decided slot at this node
	// TruncatedBelow is this acceptor's log-truncation floor: slots <= it
	// were released after a quorum-acknowledged checkpoint, so the acceptor
	// can report no accepted entries for them even though they are chosen.
	// A new leader must never noop-fill an unreported slot at or below any
	// promiser's floor (see becomeLeader).
	TruncatedBelow types.Slot
}

// acceptedMsg answers an accept.
type acceptedMsg struct {
	Ballot   types.Ballot // the accept's ballot being answered
	Slot     types.Slot
	OK       bool
	Promised types.Ballot // on reject: the ballot we are bound to
}

// decideMsg announces the chosen command for Slot, in one of two forms. By
// value it carries Cmd. By reference (ByRef) it carries only the Ballot the
// slot was chosen under: an acceptor that accepted (Slot, Ballot) already
// holds the command — a ballot proposes one value per slot — and learns it
// from its own accepted entry; any other receiver fetches it by value through
// catch-up. The same two forms are the durable dec/ record (see
// persistDecided).
type decideMsg struct {
	Slot   types.Slot
	Cmd    types.Command
	ByRef  bool
	Ballot types.Ballot // ByRef only
}

// heartbeatMsg is broadcast by the leader and answered by nobody. Ballot
// names the leader for forwarding and holds off elections; Decided lets
// followers detect that they are behind and trigger catch-up.
type heartbeatMsg struct {
	Ballot  types.Ballot
	Decided types.Slot
}

// readProbeMsg asks followers to confirm the sender is still their leader.
// Seq identifies the confirmation round; acks quote it back.
type readProbeMsg struct {
	Ballot types.Ballot
	Seq    uint64
}

// readProbeAckMsg answers a read probe. OK reports whether the acceptor is
// still bound to a ballot no higher than the probe's; on reject, Promised
// carries the blocking ballot.
type readProbeAckMsg struct {
	Ballot   types.Ballot
	Seq      uint64
	OK       bool
	Promised types.Ballot
}

// catchupReqMsg requests decided entries in [From, To].
type catchupReqMsg struct {
	From types.Slot
	To   types.Slot
}

// catchupRespMsg carries decided entries. The Frontier and TruncatedBelow
// fields make one response an O(1) progress probe: Frontier is the responder's contiguously
// decided prefix — the requester raises maxDecidedSeen from it instead of
// probing slot by slot — and a nonzero TruncatedBelow at or above the
// requested From is a redirect: the responder has released those slots after
// a checkpoint, so the requester must install a checkpoint rather than
// replay the log.
type catchupRespMsg struct {
	Entries        []decideMsg
	Frontier       types.Slot
	TruncatedBelow types.Slot
}

// forwardMsg relays queued proposals to the leader. A follower packs its
// whole pending queue into one frame instead of sending one frame per
// command.
type forwardMsg struct {
	Cmds []types.Command
}

func encodePrepare(m prepareMsg) []byte {
	w := types.NewWriter(24)
	w.Ballot(m.Ballot)
	w.Uvarint(uint64(m.From))
	return w.Bytes()
}

func decodePrepare(buf []byte) (prepareMsg, error) {
	r := types.NewReader(buf)
	m := prepareMsg{Ballot: r.Ballot(), From: types.Slot(r.Uvarint())}
	return m, wrapDecode("prepare", r)
}

func encodePromise(m promiseMsg) []byte {
	sz := 32
	for _, e := range m.Accepted {
		sz += 24 + e.Cmd.EncodedSize()
	}
	w := types.NewWriter(sz)
	w.Ballot(m.Ballot)
	w.Bool(m.OK)
	w.Ballot(m.Promised)
	w.Uvarint(uint64(len(m.Accepted)))
	for _, e := range m.Accepted {
		w.Uvarint(uint64(e.Slot))
		w.Ballot(e.Ballot)
		e.Cmd.Encode(w)
	}
	w.Uvarint(uint64(m.Decided))
	w.Uvarint(uint64(m.TruncatedBelow))
	return w.Bytes()
}

func decodePromise(buf []byte) (promiseMsg, error) {
	r := types.NewReader(buf)
	m := promiseMsg{Ballot: r.Ballot(), OK: r.Bool(), Promised: r.Ballot()}
	n := r.Uvarint()
	if r.Err() == nil && n > uint64(r.Remaining()) {
		return m, fmt.Errorf("%w: promise entry count %d", types.ErrCodec, n)
	}
	m.Accepted = make([]acceptedEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		m.Accepted = append(m.Accepted, acceptedEntry{
			Slot:   types.Slot(r.Uvarint()),
			Ballot: r.Ballot(),
			Cmd:    types.DecodeCommandFrom(r),
		})
	}
	m.Decided = types.Slot(r.Uvarint())
	m.TruncatedBelow = types.Slot(r.Uvarint())
	return m, wrapDecode("promise", r)
}

// encodeAccept renders the accepted entry for cmds at (slot, ballot) — one
// command as it is, several packed into a batch — and returns the record with
// the entry decoded from it. The member commands are encoded once, straight
// into the record, which is sized exactly so that the entry's Cmd.Data stays a
// view of it.
func encodeAccept(slot types.Slot, ballot types.Ballot, cmds []types.Command) ([]byte, acceptedEntry) {
	size := types.UvarintLen(uint64(slot)) + types.UvarintLen(ballot.Round) +
		types.UvarintLen(uint64(len(ballot.Leader))) + len(ballot.Leader)
	if len(cmds) == 1 {
		size += cmds[0].EncodedSize()
	} else {
		size += types.BatchEncodedSize(cmds)
	}
	w := types.NewWriter(size)
	w.Uvarint(uint64(slot))
	w.Ballot(ballot)
	e := acceptedEntry{Slot: slot, Ballot: ballot}
	if len(cmds) == 1 {
		e.Cmd = types.AppendCommand(w, cmds[0])
	} else {
		e.Cmd = types.AppendBatch(w, cmds)
	}
	return w.Bytes(), e
}

// decodeAccept decodes an accept payload or an acc/ record, in place. What is
// stored verbatim is checked verbatim: buf must be exactly one record.
func decodeAccept(buf []byte) (acceptedEntry, error) {
	r := types.NewReader(buf)
	e := acceptedEntry{
		Slot:   types.Slot(r.Uvarint()),
		Ballot: r.Ballot(),
		Cmd:    types.DecodeCommandFrom(r),
	}
	if err := wrapDecode("accept", r); err != nil {
		return e, err
	}
	if r.Remaining() != 0 {
		return e, fmt.Errorf("paxos accept: %w: %d bytes after the record", types.ErrCodec, r.Remaining())
	}
	return e, nil
}

func encodeAccepted(m acceptedMsg) []byte {
	w := types.NewWriter(32)
	w.Ballot(m.Ballot)
	w.Uvarint(uint64(m.Slot))
	w.Bool(m.OK)
	w.Ballot(m.Promised)
	return w.Bytes()
}

func decodeAccepted(buf []byte) (acceptedMsg, error) {
	r := types.NewReader(buf)
	m := acceptedMsg{
		Ballot:   r.Ballot(),
		Slot:     types.Slot(r.Uvarint()),
		OK:       r.Bool(),
		Promised: r.Ballot(),
	}
	return m, wrapDecode("accepted", r)
}

// decideByRefTag opens the by-reference form after the slot. The by-value
// form continues with a command, whose first byte is its kind — and 0 is not
// a valid CommandKind — so the tag is unambiguous and one decoder reads both.
const decideByRefTag = 0

func encodeDecide(m decideMsg) []byte {
	if m.ByRef {
		w := types.NewWriter(24 + len(m.Ballot.Leader))
		w.Uvarint(uint64(m.Slot))
		w.Byte(decideByRefTag)
		w.Ballot(m.Ballot)
		return w.Bytes()
	}
	w := types.NewWriter(8 + m.Cmd.EncodedSize())
	w.Uvarint(uint64(m.Slot))
	m.Cmd.Encode(w)
	return w.Bytes()
}

func decodeDecide(buf []byte) (decideMsg, error) {
	r := types.NewReader(buf)
	m := decideMsg{Slot: types.Slot(r.Uvarint())}
	if rest := buf[len(buf)-r.Remaining():]; r.Err() == nil && len(rest) > 0 && rest[0] == decideByRefTag {
		r.Byte()
		m.ByRef = true
		m.Ballot = r.Ballot()
	} else {
		m.Cmd = types.DecodeCommandFrom(r)
	}
	return m, wrapDecode("decide", r)
}

func encodeHeartbeat(m heartbeatMsg) []byte {
	w := types.NewWriter(24)
	w.Ballot(m.Ballot)
	w.Uvarint(uint64(m.Decided))
	return w.Bytes()
}

func decodeHeartbeat(buf []byte) (heartbeatMsg, error) {
	r := types.NewReader(buf)
	m := heartbeatMsg{Ballot: r.Ballot(), Decided: types.Slot(r.Uvarint())}
	return m, wrapDecode("heartbeat", r)
}

func encodeReadProbe(m readProbeMsg) []byte {
	w := types.NewWriter(24)
	w.Ballot(m.Ballot)
	w.Uvarint(m.Seq)
	return w.Bytes()
}

func decodeReadProbe(buf []byte) (readProbeMsg, error) {
	r := types.NewReader(buf)
	m := readProbeMsg{Ballot: r.Ballot(), Seq: r.Uvarint()}
	return m, wrapDecode("read-probe", r)
}

func encodeReadProbeAck(m readProbeAckMsg) []byte {
	w := types.NewWriter(40)
	w.Ballot(m.Ballot)
	w.Uvarint(m.Seq)
	w.Bool(m.OK)
	w.Ballot(m.Promised)
	return w.Bytes()
}

func decodeReadProbeAck(buf []byte) (readProbeAckMsg, error) {
	r := types.NewReader(buf)
	m := readProbeAckMsg{
		Ballot:   r.Ballot(),
		Seq:      r.Uvarint(),
		OK:       r.Bool(),
		Promised: r.Ballot(),
	}
	return m, wrapDecode("read-probe-ack", r)
}

func encodeCatchupReq(m catchupReqMsg) []byte {
	w := types.NewWriter(16)
	w.Uvarint(uint64(m.From))
	w.Uvarint(uint64(m.To))
	return w.Bytes()
}

func decodeCatchupReq(buf []byte) (catchupReqMsg, error) {
	r := types.NewReader(buf)
	m := catchupReqMsg{From: types.Slot(r.Uvarint()), To: types.Slot(r.Uvarint())}
	return m, wrapDecode("catchup-req", r)
}

func encodeCatchupResp(m catchupRespMsg) []byte {
	sz := 24
	for _, e := range m.Entries {
		sz += 8 + e.Cmd.EncodedSize()
	}
	w := types.NewWriter(sz)
	w.Uvarint(uint64(len(m.Entries)))
	for _, e := range m.Entries {
		w.Uvarint(uint64(e.Slot))
		e.Cmd.Encode(w)
	}
	w.Uvarint(uint64(m.Frontier))
	w.Uvarint(uint64(m.TruncatedBelow))
	return w.Bytes()
}

func decodeCatchupResp(buf []byte) (catchupRespMsg, error) {
	r := types.NewReader(buf)
	n := r.Uvarint()
	if r.Err() == nil && n > uint64(r.Remaining()) {
		return catchupRespMsg{}, fmt.Errorf("%w: catchup entry count %d", types.ErrCodec, n)
	}
	m := catchupRespMsg{Entries: make([]decideMsg, 0, n)}
	for i := uint64(0); i < n; i++ {
		m.Entries = append(m.Entries, decideMsg{
			Slot: types.Slot(r.Uvarint()),
			Cmd:  types.DecodeCommandFrom(r),
		})
	}
	m.Frontier = types.Slot(r.Uvarint())
	m.TruncatedBelow = types.Slot(r.Uvarint())
	return m, wrapDecode("catchup-resp", r)
}

func encodeForward(m forwardMsg) []byte {
	sz := 8
	for _, c := range m.Cmds {
		sz += c.EncodedSize()
	}
	w := types.NewWriter(sz)
	w.Uvarint(uint64(len(m.Cmds)))
	for _, c := range m.Cmds {
		c.Encode(w)
	}
	return w.Bytes()
}

func decodeForward(buf []byte) (forwardMsg, error) {
	r := types.NewReader(buf)
	n := r.Uvarint()
	if r.Err() == nil && n > uint64(r.Remaining()) {
		return forwardMsg{}, fmt.Errorf("%w: forward command count %d", types.ErrCodec, n)
	}
	m := forwardMsg{Cmds: make([]types.Command, 0, n)}
	for i := uint64(0); i < n; i++ {
		m.Cmds = append(m.Cmds, types.DecodeCommandFrom(r))
	}
	return m, wrapDecode("forward", r)
}

func wrapDecode(what string, r *types.Reader) error {
	if err := r.Err(); err != nil {
		return fmt.Errorf("paxos %s: %w", what, err)
	}
	return nil
}
