// Package smr defines the engine-neutral interface between a state machine
// replication engine (the "non-reconfigurable building block") and the layer
// above it, the composition layer (internal/reconfig).
//
// The reconfigurable SMR of the paper treats the engine strictly as a black
// box: it proposes commands, consumes the gap-free, in-order decision stream,
// and stops the engine when the configuration is wedged. Nothing in this
// interface exposes or permits membership change — that is the point of the
// paper's construction.
//
// Replica is the whole contract the composition layer drives an engine
// through, and Factory the one way it builds engines and reads what they
// persisted; internal/reconfig names no engine package beyond picking its
// default Factory.
package smr

import (
	"errors"

	"repro/internal/storage"
	"repro/internal/transport"
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
	// A consumer that stops reading never stalls the engine: what the
	// channel cannot take waits inside the engine, in order, until it can.
	// The composition relies on that: it reads a configuration's stream
	// only while that configuration's state is installed, and leaves a
	// speculative successor's or a wedged predecessor's decisions in the
	// engine. The channel is closed by Stop.
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

// Progress is a snapshot of an engine's log frontier.
type Progress struct {
	// Delivered is the highest contiguously decided slot handed to the
	// application.
	Delivered types.Slot
}

// Counters are an engine's counters that the composition layer reports.
type Counters struct {
	// DroppedInbound counts inbound protocol messages discarded because the
	// inbox was full. The protocol tolerates loss, but a nonzero value means
	// the event loop is saturated and peers are being ignored.
	DroppedInbound int64
	// GroupCommits counts engine turns that ended in a group-commit Sync.
	GroupCommits int64
	// RetainedSlots is a gauge: decided log entries currently held. An
	// engine never releases part of its log; the composition bounds it by
	// ending the configuration at its log bound and discarding the whole log
	// once the configuration is retired (Factory.Discard).
	RetainedSlots int64
}

// Replica is one member's engine as the composition layer drives it: an
// Engine with fast reads, an O(1) view of its frontier, and its counters.
type Replica interface {
	Engine
	ReadIndexer
	// Progress returns the current frontier. Safe from any goroutine.
	Progress() Progress
	// Counters returns the engine's counters that the composition layer sums
	// into its own.
	Counters() Counters
}

// Factory builds one kind of engine. The engine that wrote a store
// namespace is the one that removes it, so the factory that builds a
// stream's replicas also discards what they persisted.
type Factory interface {
	// New constructs (but does not start) member self's replica of cfg.
	// stream isolates the instance's traffic on ep and its keys in store.
	New(cfg types.Config, self types.NodeID, ep *transport.Endpoint, store storage.Store, stream uint64) (Replica, error)
	// Discard stages the deletion of everything New's replicas of stream
	// persisted in store; the caller makes it durable with one Sync. The
	// caller has stopped every replica of stream on store and builds none
	// again: a replica recovered from a partly discarded namespace could
	// forget a promise or a vote.
	Discard(store storage.Stager, stream uint64) error
}

// ErrStopped is returned by Propose after the engine has stopped (e.g. the
// configuration was wedged).
var ErrStopped = errors.New("smr: engine stopped")

// ErrNotLeader is returned through a ReadIndexer callback when the engine is
// not (or no longer) the leader and cannot serve a fast-path read.
var ErrNotLeader = errors.New("smr: not leader")

// ErrOldLayout is returned when a store holds state in a layout this version
// no longer reads: a snapshot above slot 0, or an engine log truncated below
// a floor, both written by the within-configuration checkpoints that log-bound
// wedges replaced.
var ErrOldLayout = errors.New("smr: store written by the retired checkpoint layout (snapshot base > 0 or a truncated engine log)")

// ErrNotMember is returned when constructing an engine on a node outside the
// configuration.
var ErrNotMember = errors.New("smr: node is not a member of the configuration")
