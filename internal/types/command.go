package types

import (
	"fmt"
)

// CommandKind distinguishes the payloads carried through the replicated log.
// Values start at 1 so the zero value is invalid and decodable corruption is
// caught early.
type CommandKind uint8

const (
	// CmdApp is an opaque application command; the SMR layers never look
	// inside Data, only the state machine does.
	CmdApp CommandKind = 1
	// CmdReconfig carries an encoded Config proposing the successor
	// configuration. Deciding it wedges the current engine.
	CmdReconfig CommandKind = 2
	// CmdNoop fills a slot with no application effect. Leaders use it to
	// finish slots left open by a previous leader.
	CmdNoop CommandKind = 3
	// CmdBatch packs several commands into one consensus slot (Data is an
	// encoded command list). Leaders build batches; the apply layer
	// unpacks them in order.
	CmdBatch CommandKind = 4
)

// String implements fmt.Stringer.
func (k CommandKind) String() string {
	switch k {
	case CmdApp:
		return "app"
	case CmdReconfig:
		return "reconfig"
	case CmdNoop:
		return "noop"
	case CmdBatch:
		return "batch"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Valid reports whether k is a known command kind.
func (k CommandKind) Valid() bool { return k >= CmdApp && k <= CmdBatch }

// Command is one entry of a replicated log. Client/Seq identify the issuing
// session for at-most-once semantics; they are zero for noops and for
// system-issued reconfigurations that need no dedup.
type Command struct {
	Kind   CommandKind
	Client NodeID // issuing client session; empty for system commands
	Seq    uint64 // per-client sequence number, starts at 1
	Data   []byte // app op bytes, or encoded Config for CmdReconfig
}

// IsNoop reports whether the command is a no-op filler.
func (c Command) IsNoop() bool { return c.Kind == CmdNoop }

// Equal reports deep equality of two commands.
func (c Command) Equal(o Command) bool {
	if c.Kind != o.Kind || c.Client != o.Client || c.Seq != o.Seq || len(c.Data) != len(o.Data) {
		return false
	}
	for i := range c.Data {
		if c.Data[i] != o.Data[i] {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (c Command) String() string {
	return fmt.Sprintf("{%s %s#%d %dB}", c.Kind, c.Client, c.Seq, len(c.Data))
}

// EncodedSize returns the exact byte length Encode will produce, for
// pre-sizing buffers.
func (c Command) EncodedSize() int {
	return 1 + UvarintLen(uint64(len(c.Client))) + len(c.Client) +
		UvarintLen(c.Seq) + UvarintLen(uint64(len(c.Data))) + len(c.Data)
}

// Encode appends the command's wire form to w.
func (c Command) Encode(w *Writer) {
	w.Byte(byte(c.Kind))
	w.NodeID(c.Client)
	w.Uvarint(c.Seq)
	w.BytesField(c.Data)
}

// EncodeCommand returns the command's wire form as a fresh byte slice.
func EncodeCommand(c Command) []byte {
	w := NewWriter(c.EncodedSize())
	c.Encode(w)
	return w.Bytes()
}

// AppendCommand appends c's wire form to w and returns c with Data re-pointed
// at the bytes just written: whoever keeps the encoding (an accept record)
// keeps the command with it, and the buffer c.Data came from is free to go.
func AppendCommand(w *Writer, c Command) Command {
	c.Encode(w)
	end := len(w.buf)
	c.Data = w.buf[end-len(c.Data) : end : end]
	return c
}

// DecodeCommandFrom decodes a command from r in place: Data is a view of r's
// buffer (see Reader.BytesView). A decoder that keeps Data beyond the buffer's
// life, or keeps a small Data out of a large buffer, copies it.
func DecodeCommandFrom(r *Reader) Command {
	c := Command{
		Kind:   CommandKind(r.Byte()),
		Client: r.NodeID(),
		Seq:    r.Uvarint(),
		Data:   r.BytesView(),
	}
	if r.Err() == nil && !c.Kind.Valid() {
		r.fail(fmt.Sprintf("command kind %d", c.Kind))
	}
	return c
}

// DecodeCommand decodes a command from a standalone buffer, which the
// command's Data stays a view of.
func DecodeCommand(buf []byte) (Command, error) {
	r := NewReader(buf)
	c := DecodeCommandFrom(r)
	if err := r.Err(); err != nil {
		return Command{}, err
	}
	return c, nil
}

// NoopCommand returns the canonical no-op filler command.
func NoopCommand() Command { return Command{Kind: CmdNoop} }

// ReconfigCommand wraps cfg as a reconfiguration command.
func ReconfigCommand(cfg Config) Command {
	return Command{Kind: CmdReconfig, Data: EncodeConfig(cfg)}
}

// batchDataSize is the exact length of the payload of the batch packing cmds.
func batchDataSize(cmds []Command) int {
	sz := UvarintLen(uint64(len(cmds)))
	for _, c := range cmds {
		sz += c.EncodedSize()
	}
	return sz
}

// BatchEncodedSize returns the exact byte length AppendBatch will write for
// cmds.
func BatchEncodedSize(cmds []Command) int {
	n := batchDataSize(cmds)
	return batchHeaderSize + UvarintLen(uint64(n)) + n
}

// batchHeaderSize is what precedes a batch command's Data field: the kind, an
// empty Client and Seq 0 — a batch has no session of its own.
const batchHeaderSize = 3

// AppendBatch appends to w the wire form of the batch command packing cmds,
// and returns that command with Data a view of the bytes just written — the
// member commands are encoded once, straight into the buffer the caller keeps.
// Batches must not be nested; callers pass only non-batch commands.
func AppendBatch(w *Writer, cmds []Command) Command {
	n := batchDataSize(cmds)
	w.Byte(byte(CmdBatch))
	w.NodeID("")
	w.Uvarint(0)
	w.Uvarint(uint64(n))
	w.Uvarint(uint64(len(cmds)))
	for _, c := range cmds {
		c.Encode(w)
	}
	end := len(w.buf)
	return Command{Kind: CmdBatch, Data: w.buf[end-n : end : end]}
}

// BatchCommand packs cmds into a single batch command in a buffer of its own.
func BatchCommand(cmds []Command) Command {
	return AppendBatch(NewWriter(BatchEncodedSize(cmds)), cmds)
}

// DecodeBatch unpacks a batch command's payload; the member commands' Data
// are views of it.
func DecodeBatch(data []byte) ([]Command, error) {
	r := NewReader(data)
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()) {
		return nil, fmt.Errorf("%w: batch count %d", ErrCodec, n)
	}
	out := make([]Command, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, DecodeCommandFrom(r))
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: trailing bytes in batch", ErrCodec)
	}
	return out, nil
}
