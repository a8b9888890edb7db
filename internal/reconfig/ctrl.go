// Package reconfig implements the paper's contribution: a fully
// reconfigurable state machine replication service composed from a chain of
// static, non-reconfigurable SMR engines, used strictly as black boxes through
// the internal/smr contract (smr.Replica, built by an smr.Factory; static
// Paxos, internal/paxos, by default).
//
// Each configuration C_i runs its own engine. A reconfiguration is an
// ordinary command in C_i's log; deciding it wedges C_i at that slot,
// determines the unique successor C_{i+1}, and transfers the application
// state (machine + client sessions) at the wedge point into C_{i+1}'s fresh
// engine. Commands decided after the wedge slot in the old engine are not
// applied there — pending proposers re-submit them to the successor, and
// session deduplication makes that re-submission idempotent.
//
// The successor engine starts speculatively: members begin participating in
// leader election and ordering while the snapshot is still being fetched;
// execution (and client replies) waits for the state to be installed.
package reconfig

import (
	"fmt"
	"time"

	"repro/internal/types"
)

// Control stream: all reconfig control-plane RPCs share transport stream 0;
// engine instances use stream = their configuration ID (always >= 1).
const ControlStream uint64 = 0

// Control op codes (first byte of every RPC body). Values start at 1.
const (
	opSubmit      uint8 = 1
	opSubmitReply uint8 = 2
	opLocate      uint8 = 3
	opLocateReply uint8 = 4
	// 5 and 6 were the retired monolithic snapshot transfer (opXfer /
	// opXferReply); the codes stay reserved so mixed-version traffic is
	// recognizably stale instead of misparsed.
	opAnnounce       uint8 = 7
	opAnnounceAck    uint8 = 8
	opReconfig       uint8 = 9
	opReconfReply    uint8 = 10
	opChain          uint8 = 11
	opChainReply     uint8 = 12
	opSnapMeta       uint8 = 13
	opSnapMetaReply  uint8 = 14
	opSnapChunk      uint8 = 15
	opSnapChunkReply uint8 = 16
	// 17 and 18 were the retired within-configuration checkpoint announce
	// and its ack; a log-bound wedge replaced the checkpoints. The codes stay
	// reserved, like 5 and 6.
)

// SubmitStatus describes the outcome of a submit RPC.
type SubmitStatus uint8

const (
	// SubmitApplied means the command executed; Reply carries the result.
	SubmitApplied SubmitStatus = 1
	// SubmitRedirect means this node is not serving the current
	// configuration; Config/Leader hint where to go.
	SubmitRedirect SubmitStatus = 2
	// SubmitBusy means the node shed the command under admission control:
	// its proposal queue is full. The reply's RetryAfter hints how long to
	// back off before retrying (here or at another member).
	SubmitBusy SubmitStatus = 3
)

// String implements fmt.Stringer.
func (s SubmitStatus) String() string {
	switch s {
	case SubmitApplied:
		return "applied"
	case SubmitRedirect:
		return "redirect"
	case SubmitBusy:
		return "busy"
	default:
		return fmt.Sprintf("submit-status(%d)", uint8(s))
	}
}

// ChainRecord links configuration From to its unique successor: the engine
// of From decided the reconfiguration at WedgeSlot, and To is the successor
// configuration. The set of chain records forms the configuration chain.
type ChainRecord struct {
	From        types.ConfigID
	FromMembers []types.NodeID // members of From: where the snapshot lives
	WedgeSlot   types.Slot
	To          types.Config
}

// Equal reports deep equality of chain records.
func (c ChainRecord) Equal(o ChainRecord) bool {
	if c.From != o.From || c.WedgeSlot != o.WedgeSlot || !c.To.Equal(o.To) {
		return false
	}
	if len(c.FromMembers) != len(o.FromMembers) {
		return false
	}
	for i := range c.FromMembers {
		if c.FromMembers[i] != o.FromMembers[i] {
			return false
		}
	}
	return true
}

func (c ChainRecord) encode(w *types.Writer) {
	w.Uvarint(uint64(c.From))
	w.NodeIDs(c.FromMembers)
	w.Uvarint(uint64(c.WedgeSlot))
	c.To.Encode(w)
}

func decodeChainRecordFrom(r *types.Reader) ChainRecord {
	return ChainRecord{
		From:        types.ConfigID(r.Uvarint()),
		FromMembers: r.NodeIDs(),
		WedgeSlot:   types.Slot(r.Uvarint()),
		To:          types.DecodeConfigFrom(r),
	}
}

func encodeChainRecord(c ChainRecord) []byte {
	w := types.NewWriter(32 + 12*len(c.To.Members))
	c.encode(w)
	return w.Bytes()
}

func decodeChainRecord(buf []byte) (ChainRecord, error) {
	r := types.NewReader(buf)
	c := decodeChainRecordFrom(r)
	if err := r.Err(); err != nil {
		return ChainRecord{}, fmt.Errorf("chain record: %w", err)
	}
	if _, err := types.NewConfig(c.To.ID, c.To.Members); err != nil {
		return ChainRecord{}, fmt.Errorf("chain record: %w", err)
	}
	return c, nil
}

// --- submit -----------------------------------------------------------------

// EncodeSubmitRequest encodes a client command submission.
func EncodeSubmitRequest(cmd types.Command) []byte {
	w := types.NewWriter(4 + cmd.EncodedSize())
	w.Byte(opSubmit)
	cmd.Encode(w)
	return w.Bytes()
}

// SubmitResult is the outcome of a submit RPC.
type SubmitResult struct {
	Status SubmitStatus
	Reply  []byte
	Config types.Config // current config hint (always set)
	Leader types.NodeID // leader hint, may be empty
	// RetryAfter is the server's backoff hint on SubmitBusy: how long the
	// shedding node expects its queue to take to drain. Zero otherwise.
	RetryAfter time.Duration
}

// EncodeSubmitResult encodes a submit reply (servers, and test doubles of the
// control plane).
func EncodeSubmitResult(m SubmitResult) []byte {
	w := types.NewWriter(36 + len(m.Reply) + 12*len(m.Config.Members))
	w.Byte(opSubmitReply)
	w.Byte(byte(m.Status))
	w.BytesField(m.Reply)
	m.Config.Encode(w)
	w.NodeID(m.Leader)
	w.Uvarint(uint64(m.RetryAfter / time.Microsecond))
	return w.Bytes()
}

// DecodeSubmitResult decodes a submit reply.
func DecodeSubmitResult(buf []byte) (SubmitResult, error) {
	if len(buf) == 0 || buf[0] != opSubmitReply {
		return SubmitResult{}, fmt.Errorf("%w: not a submit reply", types.ErrCodec)
	}
	r := types.NewReader(buf[1:])
	m := SubmitResult{
		Status: SubmitStatus(r.Byte()),
		Reply:  r.BytesField(),
		Config: types.DecodeConfigFrom(r),
		Leader: r.NodeID(),
	}
	m.RetryAfter = time.Duration(r.Uvarint()) * time.Microsecond
	if err := r.Err(); err != nil {
		return SubmitResult{}, fmt.Errorf("submit reply: %w", err)
	}
	return m, nil
}

// --- locate -----------------------------------------------------------------

// EncodeLocateRequest encodes a configuration-discovery request.
func EncodeLocateRequest() []byte { return []byte{opLocate} }

// LocateResult is the outcome of a locate RPC.
type LocateResult struct {
	Config types.Config
	Wedged bool // the returned config already has a decided successor
	Leader types.NodeID
}

func encodeLocateReply(m LocateResult) []byte {
	w := types.NewWriter(24 + 12*len(m.Config.Members))
	w.Byte(opLocateReply)
	m.Config.Encode(w)
	w.Bool(m.Wedged)
	w.NodeID(m.Leader)
	return w.Bytes()
}

// DecodeLocateResult decodes a locate reply.
func DecodeLocateResult(buf []byte) (LocateResult, error) {
	if len(buf) == 0 || buf[0] != opLocateReply {
		return LocateResult{}, fmt.Errorf("%w: not a locate reply", types.ErrCodec)
	}
	r := types.NewReader(buf[1:])
	m := LocateResult{
		Config: types.DecodeConfigFrom(r),
		Wedged: r.Bool(),
		Leader: r.NodeID(),
	}
	if err := r.Err(); err != nil {
		return LocateResult{}, fmt.Errorf("locate reply: %w", err)
	}
	return m, nil
}

// --- state transfer ----------------------------------------------------------
//
// A snapshot moves as a manifest (format byte + per-chunk CRC32-C list)
// followed by range-requested chunks. The manifest is the unit of agreement:
// every member of the wedged configuration computes a byte-identical chunk
// sequence, so a joiner can verify chunks pulled from any mix of sources
// against one manifest and resume after a crash from whatever chunks it
// already persisted. Because control-plane dispatch is serialized per
// endpoint, round trips — not bytes — dominate transfer latency under load;
// both replies therefore carry as many chunks as fit in a byte budget: the
// manifest reply piggybacks the leading chunks (one round trip fetches a
// small snapshot outright) and a chunk request names a contiguous range.

type snapMetaReq struct {
	Config types.ConfigID // requesting the initial snapshot OF this config
}

func encodeSnapMeta(m snapMetaReq) []byte {
	w := types.NewWriter(12)
	w.Byte(opSnapMeta)
	w.Uvarint(uint64(m.Config))
	return w.Bytes()
}

type snapMetaReply struct {
	Found  bool
	Format byte       // statemachine.SnapshotFormat
	Base   types.Slot // always 0 (an older version's mid-log checkpoint had more; a fetch refuses it)
	CRCs   []uint32   // CRC32-C per chunk; len is the chunk count
	Chunks [][]byte   // leading chunks 0..len-1, within the range byte budget
}

func encodeSnapMetaReply(m snapMetaReply) []byte {
	sz := 18 + 5*len(m.CRCs)
	for _, c := range m.Chunks {
		sz += 8 + len(c)
	}
	w := types.NewWriter(sz)
	w.Byte(opSnapMetaReply)
	w.Bool(m.Found)
	w.Byte(m.Format)
	w.Uvarint(uint64(m.Base))
	w.Uvarint(uint64(len(m.CRCs)))
	for _, c := range m.CRCs {
		w.Uvarint(uint64(c))
	}
	w.Uvarint(uint64(len(m.Chunks)))
	for _, c := range m.Chunks {
		w.BytesField(c)
	}
	return w.Bytes()
}

func decodeSnapMetaReply(buf []byte) (snapMetaReply, error) {
	if len(buf) == 0 || buf[0] != opSnapMetaReply {
		return snapMetaReply{}, fmt.Errorf("%w: not a snap-meta reply", types.ErrCodec)
	}
	r := types.NewReader(buf[1:])
	m := snapMetaReply{
		Found:  r.Bool(),
		Format: r.Byte(),
		Base:   types.Slot(r.Uvarint()),
	}
	cnt := r.Uvarint()
	if r.Err() == nil && cnt > uint64(r.Remaining()) {
		return snapMetaReply{}, fmt.Errorf("%w: snap-meta chunk count", types.ErrCodec)
	}
	m.CRCs = make([]uint32, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		m.CRCs = append(m.CRCs, uint32(r.Uvarint()))
	}
	nc := r.Uvarint()
	if r.Err() == nil && (nc > uint64(len(m.CRCs)) || nc > uint64(r.Remaining())) {
		return snapMetaReply{}, fmt.Errorf("%w: snap-meta piggyback count", types.ErrCodec)
	}
	for i := uint64(0); i < nc && r.Err() == nil; i++ {
		m.Chunks = append(m.Chunks, r.BytesField())
	}
	if err := r.Err(); err != nil {
		return snapMetaReply{}, fmt.Errorf("snap-meta reply: %w", err)
	}
	if r.Remaining() != 0 {
		return snapMetaReply{}, fmt.Errorf("%w: trailing bytes in snap-meta reply", types.ErrCodec)
	}
	return m, nil
}

type snapChunkReq struct {
	Config types.ConfigID
	First  int // first chunk index wanted
	Count  int // how many consecutive chunks (the reply may return fewer)
}

func encodeSnapChunk(m snapChunkReq) []byte {
	w := types.NewWriter(20)
	w.Byte(opSnapChunk)
	w.Uvarint(uint64(m.Config))
	w.Uvarint(uint64(m.First))
	w.Uvarint(uint64(m.Count))
	return w.Bytes()
}

// snapChunkReply carries consecutive chunks starting at the requested First;
// empty means the source has nothing there.
type snapChunkReply struct {
	Chunks [][]byte
}

func encodeSnapChunkReply(m snapChunkReply) []byte {
	sz := 8
	for _, c := range m.Chunks {
		sz += 8 + len(c)
	}
	w := types.NewWriter(sz)
	w.Byte(opSnapChunkReply)
	w.Uvarint(uint64(len(m.Chunks)))
	for _, c := range m.Chunks {
		w.BytesField(c)
	}
	return w.Bytes()
}

func decodeSnapChunkReply(buf []byte) (snapChunkReply, error) {
	if len(buf) == 0 || buf[0] != opSnapChunkReply {
		return snapChunkReply{}, fmt.Errorf("%w: not a snap-chunk reply", types.ErrCodec)
	}
	r := types.NewReader(buf[1:])
	var m snapChunkReply
	cnt := r.Uvarint()
	if r.Err() == nil && cnt > uint64(r.Remaining()) {
		return snapChunkReply{}, fmt.Errorf("%w: snap-chunk count", types.ErrCodec)
	}
	for i := uint64(0); i < cnt && r.Err() == nil; i++ {
		m.Chunks = append(m.Chunks, r.BytesField())
	}
	if err := r.Err(); err != nil {
		return snapChunkReply{}, fmt.Errorf("snap-chunk reply: %w", err)
	}
	if r.Remaining() != 0 {
		return snapChunkReply{}, fmt.Errorf("%w: trailing bytes in snap-chunk reply", types.ErrCodec)
	}
	return m, nil
}

// --- announce -----------------------------------------------------------------

type announceMsg struct {
	Record ChainRecord
}

func encodeAnnounce(m announceMsg) []byte {
	w := types.NewWriter(40 + 12*len(m.Record.To.Members))
	w.Byte(opAnnounce)
	m.Record.encode(w)
	return w.Bytes()
}

func encodeAnnounceAck() []byte { return []byte{opAnnounceAck} }

// --- admin reconfigure ----------------------------------------------------------

// EncodeReconfigRequest encodes an admin membership-change request.
func EncodeReconfigRequest(members []types.NodeID) []byte {
	w := types.NewWriter(8 + 12*len(members))
	w.Byte(opReconfig)
	w.NodeIDs(members)
	return w.Bytes()
}

// ReconfigResult is the outcome of an admin reconfigure RPC.
type ReconfigResult struct {
	OK     bool
	Detail string
	Config types.Config // resulting (or current) configuration
}

func encodeReconfigReply(m ReconfigResult) []byte {
	w := types.NewWriter(24 + len(m.Detail) + 12*len(m.Config.Members))
	w.Byte(opReconfReply)
	w.Bool(m.OK)
	w.String(m.Detail)
	m.Config.Encode(w)
	return w.Bytes()
}

// DecodeReconfigResult decodes an admin reconfigure reply.
func DecodeReconfigResult(buf []byte) (ReconfigResult, error) {
	if len(buf) == 0 || buf[0] != opReconfReply {
		return ReconfigResult{}, fmt.Errorf("%w: not a reconfig reply", types.ErrCodec)
	}
	r := types.NewReader(buf[1:])
	m := ReconfigResult{
		OK:     r.Bool(),
		Detail: r.String(),
		Config: types.DecodeConfigFrom(r),
	}
	if err := r.Err(); err != nil {
		return ReconfigResult{}, fmt.Errorf("reconfig reply: %w", err)
	}
	return m, nil
}

// --- chain dump -------------------------------------------------------------------

// EncodeChainRequest encodes a chain dump request: the whole chain.
func EncodeChainRequest() []byte { return []byte{opChain} }

// encodeChainRequestSince asks for the records of the configurations after
// since, which the asker knows already: the delta chain gossip pulls.
func encodeChainRequestSince(since types.ConfigID) []byte {
	w := types.NewWriter(11)
	w.Byte(opChain)
	w.Uvarint(uint64(since))
	return w.Bytes()
}

// ChainResult is the outcome of a chain query.
type ChainResult struct {
	Initial types.Config
	Records []ChainRecord
}

func encodeChainReply(m ChainResult) []byte {
	w := types.NewWriter(64)
	w.Byte(opChainReply)
	m.Initial.Encode(w)
	w.Uvarint(uint64(len(m.Records)))
	for _, rec := range m.Records {
		rec.encode(w)
	}
	return w.Bytes()
}

// DecodeChainResult decodes a chain dump reply.
func DecodeChainResult(buf []byte) (ChainResult, error) {
	if len(buf) == 0 || buf[0] != opChainReply {
		return ChainResult{}, fmt.Errorf("%w: not a chain reply", types.ErrCodec)
	}
	r := types.NewReader(buf[1:])
	m := ChainResult{Initial: types.DecodeConfigFrom(r)}
	n := r.Uvarint()
	if r.Err() == nil && n > uint64(r.Remaining()) {
		return ChainResult{}, fmt.Errorf("%w: chain record count", types.ErrCodec)
	}
	m.Records = make([]ChainRecord, 0, n)
	for i := uint64(0); i < n; i++ {
		m.Records = append(m.Records, decodeChainRecordFrom(r))
	}
	if err := r.Err(); err != nil {
		return ChainResult{}, fmt.Errorf("chain reply: %w", err)
	}
	return m, nil
}
