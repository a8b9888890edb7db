// Package router spreads a KV keyspace over the multi-group runtime: a fixed
// hash partition of the keys into NumShards shards, each owned by one RSM
// group for good, and a Router that submits every operation to the group
// owning its key.
//
// The shape follows the FRAPPE platform the source paper's composition
// protocol was built for: many small replicated services (here one group per
// set of shards) hosted per process over a shared transport and a shared WAL.
// There is one way to move a shard: reconfigure the group that owns it onto
// other processes (cluster.Cluster.Reconfigure). The paper's protocol does all
// the work — the machine state and the client session table travel together
// in one snapshot, so a command retried across the move is still deduplicated
// — and the partition never changes, so a client never sees a redirect.
// Finer-grained rebalancing is more groups (up to one per shard), each moved
// the same way.
package router

import (
	"context"
	"fmt"

	"repro/internal/statemachine"
	"repro/internal/types"
)

// NumShards is the number of hash partitions the keyspace is split into —
// the machines' internal shard count, so one router shard is exactly one
// KVStore shard (and one snapshot chunk).
const NumShards = statemachine.NumKeyShards

// ShardMap is the keyspace partition: shard i (of NumShards) is served by
// group Owner[i]. It is fixed when the groups are created.
type ShardMap struct {
	Owner [NumShards]types.GroupID
}

// OwnerOf returns the shard key hashes to and the group serving it.
func (m ShardMap) OwnerOf(key string) (shard int, gid types.GroupID) {
	shard = statemachine.KeyShard(key)
	return shard, m.Owner[shard]
}

// ShardsOf returns the shards assigned to gid, ascending.
func (m ShardMap) ShardsOf(gid types.GroupID) []int {
	var out []int
	for s, g := range m.Owner {
		if g == gid {
			out = append(out, s)
		}
	}
	return out
}

// SplitShards deals NumShards round-robin across the given groups — the
// balanced assignment.
func SplitShards(groups []types.GroupID) (ShardMap, error) {
	if len(groups) == 0 {
		return ShardMap{}, fmt.Errorf("router: no groups to assign shards to")
	}
	var m ShardMap
	for s := range m.Owner {
		m.Owner[s] = groups[s%len(groups)]
	}
	return m, nil
}

// Groups is the slice of the multi-group runtime the router needs. It is a
// structural interface so the cluster layer never imports the router:
// *cluster.Cluster satisfies it.
type Groups interface {
	// Submit executes one command on group gid with session (client, seq).
	Submit(ctx context.Context, gid types.GroupID, client types.NodeID, seq uint64, op []byte) ([]byte, error)
}

// Router is the client-side routing layer over groups that each run an
// ordinary statemachine.NewKVMachine. Safe for concurrent use.
type Router struct {
	groups Groups
	smap   ShardMap
}

// New creates a router over the given runtime and partition.
func New(groups Groups, smap ShardMap) *Router {
	return &Router{groups: groups, smap: smap}
}

// Submit executes one KV operation on key for session (client, seq) on the
// group that owns key and returns the machine's reply. A client uses one seq
// stream across all groups; each group's session table deduplicates the
// commands that reached it, so retrying the same (client, seq) is safe, also
// across a move of the group.
func (r *Router) Submit(ctx context.Context, client types.NodeID, seq uint64, key string, op []byte) ([]byte, error) {
	_, gid := r.smap.OwnerOf(key)
	return r.groups.Submit(ctx, gid, client, seq, op)
}
