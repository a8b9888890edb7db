package types

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Codec helpers: a tiny append-based writer and a cursor-based reader for the
// fixed wire formats used throughout the repository. All multi-byte integers
// are unsigned varints (binary.PutUvarint); byte strings are length-prefixed.
//
// These helpers never panic on malformed input: every Reader method records
// the first error and subsequent reads return zero values, so decoders can
// read a whole struct and check Err() once at the end.

// ErrCodec is the sentinel wrapped by all decoding errors.
var ErrCodec = errors.New("codec")

// Writer accumulates an encoded message. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with capacity pre-sized to n bytes.
func NewWriter(n int) *Writer { return &Writer{buf: make([]byte, 0, n)} }

// Bytes returns the encoded bytes accumulated so far.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset empties the writer, keeping its capacity — for sync.Pool reuse on
// encode hot paths. The caller must be done with any Bytes() result first.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Len returns the number of bytes accumulated so far.
func (w *Writer) Len() int { return len(w.buf) }

// Uvarint appends v as an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Byte appends a single raw byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// BytesField appends a length-prefixed byte slice.
func (w *Writer) BytesField(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// NodeID appends a node identifier.
func (w *Writer) NodeID(id NodeID) { w.String(string(id)) }

// NodeIDs appends a length-prefixed list of node identifiers.
func (w *Writer) NodeIDs(ids []NodeID) {
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		w.NodeID(id)
	}
}

// Ballot appends a ballot.
func (w *Writer) Ballot(b Ballot) {
	w.Uvarint(b.Round)
	w.NodeID(b.Leader)
}

// Reader decodes a message produced by Writer. Construct with NewReader.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader returns a Reader over buf. The Reader does not copy buf; callers
// must not mutate it while decoding.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error encountered, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated or malformed %s at offset %d", ErrCodec, what, r.pos)
	}
}

// Uvarint decodes an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.pos += n
	return v
}

// Byte decodes a single raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail("byte")
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

// Bool decodes a boolean.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// String decodes a length-prefixed string.
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)-r.pos) {
		r.fail("string")
		return ""
	}
	s := string(r.buf[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

// BytesField decodes a length-prefixed byte slice. The returned slice is a
// copy, safe to retain: the read for a decoder whose source buffer does not
// stay (WAL replay goes through a segment at a time), or whose caller keeps a
// small field of a large buffer (a state machine storing one value of a batch
// record).
func (r *Reader) BytesField() []byte {
	v := r.BytesView()
	if r.err != nil {
		return nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

// BytesView decodes a length-prefixed byte slice in place: the result shares
// memory with the Reader's buffer, which must therefore stay unmodified for as
// long as the result is in use — true of every frame the transport delivers
// and every value a store returns. Its capacity equals its length, so an
// append cannot write into the neighbouring field.
func (r *Reader) BytesView() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.pos) {
		r.fail("bytes")
		return nil
	}
	end := r.pos + int(n)
	out := r.buf[r.pos:end:end]
	r.pos = end
	return out
}

// NodeID decodes a node identifier.
func (r *Reader) NodeID() NodeID { return NodeID(r.String()) }

// NodeIDs decodes a list of node identifiers.
func (r *Reader) NodeIDs() []NodeID {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) { // each id costs at least 1 byte
		r.fail("node id list")
		return nil
	}
	out := make([]NodeID, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.NodeID())
	}
	return out
}

// Ballot decodes a ballot.
func (r *Reader) Ballot() Ballot {
	return Ballot{Round: r.Uvarint(), Leader: r.NodeID()}
}

// UvarintLen returns the encoded size in bytes of v as a varint, useful for
// pre-sizing writers.
func UvarintLen(v uint64) int {
	if v == 0 {
		return 1
	}
	bits := 64 - numLeadingZeros(v)
	return (bits + 6) / 7
}

func numLeadingZeros(v uint64) int {
	if v == 0 {
		return 64
	}
	n := 0
	if v <= math.MaxUint32 {
		n += 32
		v <<= 32
	}
	if v <= math.MaxUint64>>16 {
		n += 16
		v <<= 16
	}
	if v <= math.MaxUint64>>8 {
		n += 8
		v <<= 8
	}
	for v <= math.MaxUint64>>1 {
		n++
		v <<= 1
	}
	return n
}
