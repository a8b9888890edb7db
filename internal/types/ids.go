// Package types defines the identifiers, commands, configurations and binary
// codecs shared by every layer of the reconfigurable SMR stack: the transport,
// the static Paxos engine, the composition layer and clients.
//
// The package is deliberately dependency-free (stdlib only) so that every
// other internal package can import it without cycles.
package types

import (
	"fmt"
	"sort"
)

// SeedFor derives a stable rng seed from a name (FNV-1a over its bytes), so
// jitter differs across nodes but a node's schedule is reproducible. The seed
// is non-negative.
func SeedFor(id string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return int64(h & (1<<62 - 1))
}

// NodeID names a process in the system: a replica, a spare, or a client.
// IDs are opaque strings; replicas conventionally look like "n1", "n2", ...
// and clients like "c1", "c2", ....
type NodeID string

// ConfigID numbers configurations along the configuration chain. The initial
// configuration has ID 1; each reconfiguration produces a successor with the
// next ID. ID 0 is invalid (zero value is never a live configuration).
type ConfigID uint64

// GroupID names one RSM group — one independent reconfigurable chain — in a
// process hosting several over shared transport and storage. Group 0 is the
// default group: ungrouped wire frames and store layouts are group 0's, so a
// single-group deployment is the one-group case of the same runtime.
type GroupID uint64

// Slot indexes a position in a single static engine's command log. Slots
// start at 1; slot 0 is "nothing decided yet".
type Slot uint64

// Ballot is a Paxos ballot number: a totally ordered (Round, Leader) pair.
// The zero Ballot is smaller than every ballot a proposer can own, so it is
// a safe "never promised" initial value.
type Ballot struct {
	Round  uint64
	Leader NodeID
}

// Less reports whether b orders strictly before o.
func (b Ballot) Less(o Ballot) bool {
	if b.Round != o.Round {
		return b.Round < o.Round
	}
	return b.Leader < o.Leader
}

// Equal reports whether b and o are the same ballot.
func (b Ballot) Equal(o Ballot) bool { return b.Round == o.Round && b.Leader == o.Leader }

// IsZero reports whether b is the zero (never-promised) ballot.
func (b Ballot) IsZero() bool { return b.Round == 0 && b.Leader == "" }

// Next returns the smallest ballot owned by leader that is strictly greater
// than b.
func (b Ballot) Next(leader NodeID) Ballot {
	if leader > b.Leader {
		return Ballot{Round: b.Round, Leader: leader}
	}
	return Ballot{Round: b.Round + 1, Leader: leader}
}

// String implements fmt.Stringer.
func (b Ballot) String() string { return fmt.Sprintf("%d.%s", b.Round, b.Leader) }

// SortNodeIDs sorts ids in place and returns the slice, for deterministic
// iteration over member sets.
func SortNodeIDs(ids []NodeID) []NodeID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// CloneNodeIDs returns a copy of ids (boundaries should not share slices).
func CloneNodeIDs(ids []NodeID) []NodeID {
	if ids == nil {
		return nil
	}
	out := make([]NodeID, len(ids))
	copy(out, ids)
	return out
}
