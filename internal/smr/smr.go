// Package smr defines the engine-neutral interface between a state machine
// replication engine (the "non-reconfigurable building block") and the layer
// above it, the composition layer (internal/reconfig).
//
// The reconfigurable SMR of the paper treats the engine strictly as a black
// box: it proposes commands, consumes the gap-free, in-order decision stream,
// and stops the engine when the configuration is wedged. Nothing in this
// interface exposes or permits membership change — that is the point of the
// paper's construction.
package smr

import (
	"errors"

	"repro/internal/types"
)

// Decision is one decided log entry, delivered in slot order with no gaps.
type Decision struct {
	Slot types.Slot
	Cmd  types.Command
}

// Engine is a static SMR instance over a fixed member set.
//
// Lifecycle: New -> Start -> (Propose / Decisions) -> Stop. After Stop the
// decision channel is closed; Propose fails.
type Engine interface {
	// Start launches the engine's goroutines. It must be called once.
	Start() error
	// Stop terminates the engine and closes the decision stream. It is
	// idempotent and waits for the engine's goroutines to exit.
	Stop()
	// Propose submits a command for total ordering. Non-leaders forward
	// to the current leader; the command is decided at most once per
	// proposal but may be lost (callers retry on timeout). Propose never
	// blocks on consensus progress.
	Propose(cmd types.Command) error
	// Decisions returns the engine's in-order, gap-free decision stream.
	// The channel is closed by Stop.
	Decisions() <-chan Decision
	// Leader returns the engine's current leader hint (empty when
	// unknown) and whether this replica currently believes it is leader.
	Leader() (types.NodeID, bool)
}

// ReadIndexer is an optional engine capability: linearizable reads without
// log appends. ReadIndex asks the engine for a slot such that any command
// chosen before the read was invoked has slot <= index; the engine confirms
// it still holds leadership with one quorum round and then invokes done
// exactly once. On success err is nil and index is the slot the caller must
// have applied before answering the read locally. On failure
// (not leader, deposed mid-round, engine stopped) err is non-nil and the
// caller falls back to proposing the read through the log.
//
// done may be invoked synchronously from ReadIndex or later from the
// engine's event loop; implementations of done must not block.
type ReadIndexer interface {
	ReadIndex(done func(index types.Slot, err error)) error
}

// ErrStopped is returned by Propose after the engine has stopped (e.g. the
// configuration was wedged).
var ErrStopped = errors.New("smr: engine stopped")

// ErrNotLeader is returned through a ReadIndexer callback when the engine is
// not (or no longer) the leader and cannot serve a fast-path read.
var ErrNotLeader = errors.New("smr: not leader")

// ErrNotMember is returned when constructing an engine on a node outside the
// configuration.
var ErrNotMember = errors.New("smr: node is not a member of the configuration")
