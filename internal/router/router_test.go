package router_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/router"
	"repro/internal/statemachine"
	"repro/internal/types"
)

// shardedWorld is a full sharded runtime: nGroups KV groups over three shared
// processes, the balanced partition, and a router.
type shardedWorld struct {
	m    *cluster.Cluster
	smap router.ShardMap
	rt   *router.Router
	gids []types.GroupID
}

func newShardedWorld(t *testing.T, nGroups int) *shardedWorld {
	t.Helper()
	m := cluster.New(cluster.Config{
		Node:    cluster.FastOptions(),
		Factory: statemachine.NewKVMachine,
	})
	t.Cleanup(m.Close)
	gids := make([]types.GroupID, nGroups)
	for i := range gids {
		gids[i] = types.GroupID(i + 1)
	}
	smap, err := router.SplitShards(gids)
	if err != nil {
		t.Fatal(err)
	}
	procs := []types.NodeID{"p1", "p2", "p3"}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, gid := range gids {
		if err := m.CreateGroup(gid, procs, nil); err != nil {
			t.Fatal(err)
		}
		if err := m.WaitServing(ctx, gid); err != nil {
			t.Fatal(err)
		}
	}
	return &shardedWorld{m: m, smap: smap, rt: router.New(m, smap), gids: gids}
}

func (w *shardedWorld) submit(t *testing.T, ctx context.Context, client types.NodeID, seq uint64, key string, inner []byte) []byte {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		reply, err := w.rt.Submit(ctx, client, seq, key, inner)
		if err == nil {
			return reply
		}
		if time.Now().After(deadline) {
			t.Fatalf("routed submit %q: %v", key, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestRouterEndToEnd(t *testing.T) {
	w := newShardedWorld(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const n = 40
	seq := uint64(0)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		seq++
		reply := w.submit(t, ctx, "c", seq, k, statemachine.EncodePut(k, []byte("v-"+k)))
		if statemachine.ReplyStatus(reply) != statemachine.StatusOK {
			t.Fatalf("put %s: %v", k, statemachine.ReplyStatus(reply))
		}
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		seq++
		reply := w.submit(t, ctx, "c", seq, k, statemachine.EncodeGet(k))
		if got := string(statemachine.ReplyPayload(reply)); got != "v-"+k {
			t.Fatalf("get %s = %q", k, got)
		}
	}
	// Both groups actually applied work (the split sends keys to each).
	for _, gid := range w.gids {
		if gs := w.m.Stats(gid); gs.Applied == 0 {
			t.Fatalf("group %d applied nothing", gid)
		}
	}
	if w.m.TotalViolations() != 0 {
		t.Fatal("invariant violations")
	}
}

// keyOwnedBy returns a key with the given prefix that the partition assigns
// to group gid.
func keyOwnedBy(smap router.ShardMap, prefix string, gid types.GroupID) string {
	for i := 0; ; i++ {
		key := fmt.Sprintf("%s-%d", prefix, i)
		if _, owner := smap.OwnerOf(key); owner == gid {
			return key
		}
	}
}

// TestControllerMoveGroup: routed data survives Cluster.Reconfigure. Moving a
// group's replicas onto three fresh processes leaves the partition alone, so
// the router finds the key where it always was, served by the new members.
func TestControllerMoveGroup(t *testing.T) {
	w := newShardedWorld(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	key := keyOwnedBy(w.smap, "mv", 1)
	w.submit(t, ctx, "c", 1, key, statemachine.EncodePut(key, []byte("carried")))

	if _, err := w.m.Reconfigure(ctx, 1, []types.NodeID{"q1", "q2", "q3"}); err != nil {
		t.Fatal(err)
	}
	reply := w.submit(t, ctx, "c", 2, key, statemachine.EncodeGet(key))
	if got := string(statemachine.ReplyPayload(reply)); got != "carried" {
		t.Fatalf("moved group reads %q", got)
	}
	members := w.m.Members(1)
	for _, id := range members {
		if id != "q1" && id != "q2" && id != "q3" {
			t.Fatalf("group 1 member %s not in target set", id)
		}
	}
	if w.m.TotalViolations() != 0 {
		t.Fatal("invariant violations")
	}
}

// TestMoveGroupKeepsSessionDedup is why reconfiguring the group is the way a
// shard moves: the session table travels in the same snapshot as the data, so
// a client that never saw its ack and retries the same (client, seq) after
// the move gets the cached reply back and the command is not applied again.
func TestMoveGroupKeepsSessionDedup(t *testing.T) {
	w := newShardedWorld(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	key := keyOwnedBy(w.smap, "dedup", 1)
	appendZ := statemachine.EncodeAppend(key, []byte("z"))
	first := w.submit(t, ctx, "retrier", 1, key, appendZ)
	if statemachine.ReplyStatus(first) != statemachine.StatusOK {
		t.Fatalf("append: %v", statemachine.ReplyStatus(first))
	}

	if _, err := w.m.Reconfigure(ctx, 1, []types.NodeID{"q1", "q2", "q3"}); err != nil {
		t.Fatal(err)
	}

	again := w.submit(t, ctx, "retrier", 1, key, appendZ)
	if !bytes.Equal(again, first) {
		t.Fatalf("retry after the move answered %x, the first submit %x", again, first)
	}
	reply := w.submit(t, ctx, "reader", 1, key, statemachine.EncodeGet(key))
	if got := string(statemachine.ReplyPayload(reply)); got != "z" {
		t.Fatalf("retry across the move re-applied: key = %q, want %q", got, "z")
	}
	if w.m.TotalViolations() != 0 {
		t.Fatal("invariant violations")
	}
}

func TestSplitShards(t *testing.T) {
	m, err := router.SplitShards([]types.GroupID{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[types.GroupID]int{}
	for _, g := range m.Owner {
		counts[g]++
	}
	for gid, n := range counts {
		if n < router.NumShards/3-1 || n > router.NumShards/3+1 {
			t.Fatalf("group %d owns %d shards (unbalanced)", gid, n)
		}
	}
	for gid := types.GroupID(1); gid <= 3; gid++ {
		if len(m.ShardsOf(gid)) != counts[gid] {
			t.Fatalf("ShardsOf(%d) mismatch", gid)
		}
	}
	if _, err := router.SplitShards(nil); err == nil {
		t.Fatal("empty split accepted")
	}
}
