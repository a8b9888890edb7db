// Sharded: the multi-group runtime. Three processes host four independent
// RSM groups over ONE shared transport and ONE shared WAL per process; a
// router spreads the keyspace across the groups by a fixed hash partition.
// One group is then reconfigured onto new machines — the one way a shard
// moves — while the other groups keep serving.
//
//	go run ./examples/sharded
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/router"
	"repro/internal/statemachine"
	"repro/internal/transport"
	"repro/internal/types"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sharded:", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. A cluster: each process is ONE endpoint and ONE store, shared by
	//    every group hosted there. Group traffic is demultiplexed by the
	//    GroupID in the transport frame; group state is namespaced by a key
	//    prefix in the shared WAL, so all groups' records coalesce into the
	//    same group-commit fsyncs.
	m := cluster.New(cluster.Config{
		Transport: transport.Options{BaseLatency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond},
		Node:      cluster.FastOptions(),
	})
	defer m.Close()

	// 2. Partition the keyspace: hash shards split evenly across four
	//    groups, each group replicated n=3 on the same three processes.
	gids := []types.GroupID{1, 2, 3, 4}
	smap, err := router.SplitShards(gids)
	if err != nil {
		return err
	}
	home := []types.NodeID{"p1", "p2", "p3"}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, gid := range gids {
		if err := m.CreateGroup(gid, home, nil); err != nil {
			return err
		}
		if err := m.WaitServing(ctx, gid); err != nil {
			return err
		}
	}
	rt := router.New(m, smap)
	fmt.Printf("serving: %d groups x n=%d on %d processes, %d shards\n",
		len(gids), len(home), len(home), len(smap.Owner))

	// 3. Routed writes: the router hashes each key to a shard and submits
	//    the op, as it is, to the group that owns the shard.
	submit := func(client types.NodeID, seq uint64, key string, op []byte) ([]byte, error) {
		var lastErr error
		for i := 0; i < 200; i++ {
			attempt, cancel := context.WithTimeout(ctx, time.Second)
			reply, err := rt.Submit(attempt, client, seq, key, op)
			cancel()
			if err == nil {
				return reply, nil
			}
			lastErr = err
			time.Sleep(5 * time.Millisecond)
		}
		return nil, lastErr
	}
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("user-%04d", i)
		if _, err := submit("demo", uint64(i+1), key, statemachine.EncodePut(key, []byte("v1"))); err != nil {
			return err
		}
	}
	for _, gid := range gids {
		fmt.Printf("  group %d: applied=%d shards=%d\n", gid, m.Stats(gid).Applied, len(smap.ShardsOf(gid)))
	}

	// 4. Move one group to fresh machines. The group reconfigures via
	//    chunked state transfer — its data and its client sessions travel as
	//    one snapshot; the partition does not change. The other three groups
	//    never notice.
	_, moveGid := smap.OwnerOf("user-0000")
	fmt.Printf("moving group %d (owner of user-0000) to q1,q2,q3...\n", moveGid)
	if _, err := m.Reconfigure(ctx, moveGid, []types.NodeID{"q1", "q2", "q3"}); err != nil {
		return err
	}
	fmt.Printf("group %d now on %v\n", moveGid, m.Members(moveGid))

	// 5. The data survived the move and the router still finds it.
	reply, err := submit("demo", 100, "user-0000", statemachine.EncodeGet("user-0000"))
	if err != nil {
		return err
	}
	fmt.Printf("after move: user-0000 = %q\n", statemachine.ReplyPayload(reply))
	return nil
}
