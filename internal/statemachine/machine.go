// Package statemachine defines the replicated application layer: the
// deterministic Machine interface every SMR engine drives — Apply, plus a
// copy-on-write fork cut into chunks, the one snapshot format every join,
// stale jump, checkpoint catch-up and restart moves state through — a
// client-session deduplication wrapper giving at-most-once semantics across
// retries and reconfigurations, and three concrete machines: a key/value
// store and a bank with a conservation invariant, which share one sharded
// copy-on-write map (shardMap), and a one-chunk counter the tests use.
//
// A replica applies decided commands one at a time, in decided order, from
// one goroutine (Sessioned.ApplyCommand); nothing here starts a goroutine or
// takes a lock. A fork is the only thing that may be read while a command is
// applied.
package statemachine

import "fmt"

// Machine is a deterministic state machine. Implementations must be fully
// deterministic: the same op sequence applied to the same initial state must
// produce identical replies and byte-identical snapshot chunks on every
// replica.
//
// Application-level failures (unknown key, malformed op, ...) are encoded in
// the reply — never as a Go error — so that a "failing" op is just as
// deterministic as a succeeding one.
//
// A machine's state leaves it only as a copy-on-write fork cut into chunks
// (SnapshotFormat), and comes back chunk by chunk into a fresh machine from
// the same Factory.
type Machine interface {
	// Apply executes one operation and returns its reply.
	Apply(op []byte) []byte
	// ForkSnapshot captures the current state as a copy-on-write fork.
	// The caller may serialize it concurrently with further Apply calls.
	ForkSnapshot() SnapshotSource
	// RestoreChunk installs one chunk of a snapshot being restored. Chunks
	// may arrive in any order; each index is delivered at most once. It
	// returns an error only for corrupted input.
	RestoreChunk(index int, data []byte) error
	// FinishRestore completes a restore after all total chunks have been
	// delivered via RestoreChunk, validating completeness.
	FinishRestore(total int) error
}

// Factory creates a fresh, empty machine. Each configuration's replica set
// builds machines through a factory so crashed replicas restart clean and
// restore from snapshot chunks.
type Factory func() Machine

// ReadOnlyDetector is an optional Machine capability: classifying ops that
// cannot change state. Only ops for which ReadOnly returns true may be
// served through the linearizable read fast path (no log append); a machine
// that does not implement it gets no fast path. ReadOnly must be
// conservative — when in doubt (malformed op, unknown opcode), report false
// and let the op take the log path, where a BadOp reply is harmless.
type ReadOnlyDetector interface {
	ReadOnly(op []byte) bool
}

// Status is the leading byte of every reply produced by the machines in
// this package. Values start at 1 so a zero byte is never a valid status.
type Status uint8

const (
	// StatusOK signals success; the rest of the reply is op-specific.
	StatusOK Status = 1
	// StatusNotFound signals a lookup miss.
	StatusNotFound Status = 2
	// StatusBadOp signals a malformed or unknown operation.
	StatusBadOp Status = 3
	// StatusConflict signals a failed precondition (CAS mismatch,
	// overdraft, duplicate account, ...).
	StatusConflict Status = 4
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusNotFound:
		return "not-found"
	case StatusBadOp:
		return "bad-op"
	case StatusConflict:
		return "conflict"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// ReplyStatus extracts the status byte of a reply (StatusBadOp for empty).
func ReplyStatus(reply []byte) Status {
	if len(reply) == 0 {
		return StatusBadOp
	}
	return Status(reply[0])
}

// ReplyPayload returns the reply body after the status byte.
func ReplyPayload(reply []byte) []byte {
	if len(reply) <= 1 {
		return nil
	}
	return reply[1:]
}

func statusReply(s Status) []byte { return []byte{byte(s)} }

func okReply(payload []byte) []byte {
	out := make([]byte, 0, 1+len(payload))
	out = append(out, byte(StatusOK))
	return append(out, payload...)
}
