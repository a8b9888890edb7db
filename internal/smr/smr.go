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

// Checkpointer is the engine capability behind the composition layer's
// checkpoints: releasing a log prefix a durable checkpoint covers, resuming
// delivery above an installed checkpoint, and an O(1) view of the log
// frontier. TruncateBelow and SkipTo never block and are applied
// asynchronously; of several calls the engine has not yet seen, only the
// highest slot counts.
type Checkpointer interface {
	// TruncateBelow releases the engine's state for slots <= floor. The
	// caller guarantees a checkpoint covering them is durable and
	// quorum-acknowledged. The floor is clamped to the delivered prefix:
	// an undelivered slot is never released.
	TruncateBelow(floor types.Slot)
	// SkipTo installs a checkpoint's base: the application holds state
	// covering every slot <= base, so delivery resumes at base+1 and the
	// slots below are released as TruncateBelow would. It clears
	// Progress.CheckpointNeeded, also when delivery is already past base.
	SkipTo(base types.Slot)
	// Progress returns the current frontier. Safe from any goroutine.
	Progress() Progress
	// Counters returns the engine's counters that the composition layer
	// sums into its own.
	Counters() Counters
}

// Progress is a snapshot of an engine's log frontier. The composition
// layer's tick reads it to decide in one probe whether this member
// is lagging far enough to fetch a checkpoint instead of walking the gap
// slot by slot.
type Progress struct {
	// Delivered is the highest contiguously decided slot handed to the
	// application.
	Delivered types.Slot
	// MaxDecidedSeen is the highest slot known to be decided anywhere, so
	// MaxDecidedSeen - Delivered is the decision gap.
	MaxDecidedSeen types.Slot
	// TruncatedBelow is the local truncation floor: slots <= it have been
	// released and cannot be served or re-voted.
	TruncatedBelow types.Slot
	// CheckpointNeeded reports that the missing prefix no longer exists in
	// any reachable log: only a checkpoint install (SkipTo) can fill it.
	CheckpointNeeded bool
}

// Counters are an engine's counters that the composition layer reports.
type Counters struct {
	// DroppedInbound counts inbound protocol messages discarded because the
	// inbox was full. The protocol tolerates loss, but a nonzero value means
	// the event loop is saturated and peers are being ignored.
	DroppedInbound int64
	// GroupCommits counts engine turns that ended in a group-commit Sync.
	GroupCommits int64
	// TruncatedSlots counts log slots released below checkpoint floors over
	// the engine's lifetime.
	TruncatedSlots int64
	// RetainedSlots is a gauge: decided log entries currently held. With
	// checkpoints on it stays bounded by the checkpoint interval plus the
	// truncation margin.
	RetainedSlots int64
}

// Replica is one member's engine as the composition layer drives it.
type Replica interface {
	Engine
	ReadIndexer
	Checkpointer
}

// Factory builds one kind of engine. The engine that wrote a store
// namespace is the one that reads it back, so the factory that builds a
// stream's replicas also reads their persisted truncation floor.
type Factory interface {
	// New constructs (but does not start) member self's replica of cfg.
	// stream isolates the instance's traffic on ep and its keys in store.
	New(cfg types.Config, self types.NodeID, ep *transport.Endpoint, store storage.Store, stream uint64) (Replica, error)
	// Floor reads the truncation floor New's replica of stream persisted in
	// store, without building one: slots <= it are gone from its log.
	Floor(store storage.Store, stream uint64) (types.Slot, error)
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
