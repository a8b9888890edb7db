package statemachine

import (
	"fmt"

	"repro/internal/types"
)

// CounterOp enumerates the counter machine's operations. Values start at 1.
type CounterOp uint8

const (
	// CounterAdd adds a delta. Reply: OK+uvarint new value.
	CounterAdd CounterOp = 1
	// CounterGet reads the value. Reply: OK+uvarint.
	CounterGet CounterOp = 2
	// CounterSet overwrites the value. Reply: OK.
	CounterSet CounterOp = 3
)

// Counter is the simplest useful machine: a single uint64 register with
// add/get/set. Its zero value is ready to use.
type Counter struct {
	value uint64
}

var _ Machine = (*Counter)(nil)

// NewCounterMachine is a Factory for Counter.
func NewCounterMachine() Machine { return &Counter{} }

// EncodeAdd encodes an add op.
func EncodeAdd(delta uint64) []byte {
	w := types.NewWriter(1 + types.UvarintLen(delta))
	w.Byte(byte(CounterAdd))
	w.Uvarint(delta)
	return w.Bytes()
}

// EncodeCounterGet encodes a get op.
func EncodeCounterGet() []byte { return []byte{byte(CounterGet)} }

// EncodeCounterSet encodes a set op.
func EncodeCounterSet(v uint64) []byte {
	w := types.NewWriter(1 + types.UvarintLen(v))
	w.Byte(byte(CounterSet))
	w.Uvarint(v)
	return w.Bytes()
}

// ReadOnly implements ReadOnlyDetector.
func (m *Counter) ReadOnly(op []byte) bool {
	return len(op) > 0 && CounterOp(op[0]) == CounterGet
}

// Apply implements Machine.
func (m *Counter) Apply(op []byte) []byte {
	if len(op) == 0 {
		return statusReply(StatusBadOp)
	}
	r := types.NewReader(op[1:])
	switch CounterOp(op[0]) {
	case CounterAdd:
		d := r.Uvarint()
		if r.Err() != nil {
			return statusReply(StatusBadOp)
		}
		m.value += d
		return okReply(uvarintBytes(m.value))
	case CounterGet:
		return okReply(uvarintBytes(m.value))
	case CounterSet:
		v := r.Uvarint()
		if r.Err() != nil {
			return statusReply(StatusBadOp)
		}
		m.value = v
		return okReply(nil)
	default:
		return statusReply(StatusBadOp)
	}
}

// counterFork is a Counter's snapshot: its value, the one chunk.
type counterFork uint64

// ForkSnapshot implements Machine.
func (m *Counter) ForkSnapshot() SnapshotSource { return counterFork(m.value) }

func (f counterFork) NumChunks() int   { return 1 }
func (f counterFork) Chunk(int) []byte { return uvarintBytes(uint64(f)) }

// RestoreChunk implements Machine.
func (m *Counter) RestoreChunk(index int, data []byte) error {
	if index != 0 {
		return fmt.Errorf("%w: counter chunk index %d, want 0", types.ErrCodec, index)
	}
	r := types.NewReader(data)
	v := r.Uvarint()
	if err := r.Err(); err != nil {
		return fmt.Errorf("counter chunk: %w", err)
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%w: trailing bytes in counter chunk", types.ErrCodec)
	}
	m.value = v
	return nil
}

// FinishRestore implements Machine.
func (m *Counter) FinishRestore(total int) error {
	if total != 1 {
		return fmt.Errorf("%w: counter snapshot has %d chunks, want 1", types.ErrCodec, total)
	}
	return nil
}

// Value returns the current value (test helper).
func (m *Counter) Value() uint64 { return m.value }
