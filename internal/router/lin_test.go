package router_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/history"
	"repro/internal/lincheck"
	"repro/internal/router"
	"repro/internal/statemachine"
	"repro/internal/types"
)

// chaosSeed mirrors the reconfig chaos tests: deterministic default,
// overridable with CHAOS_SEED for reproduction.
func chaosSeed(t *testing.T, def int64) int64 {
	t.Helper()
	seed := def
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("seed %d (rerun with CHAOS_SEED=%d)", seed, seed)
	return seed
}

// TestLinearizabilityShardedReconfig is the multi-shard chaos case: routed
// KV clients run against four groups while a nemesis concurrently
// reconfigures two shards' groups at a time onto randomly drawn member sets
// (migration-via-reconfiguration, the primary path — state and sessions
// travel with each group via chunked snapshot transfer). The full routed
// history must stay linearizable per key.
func TestLinearizabilityShardedReconfig(t *testing.T) {
	seed := chaosSeed(t, 404)
	rounds := 6
	if testing.Short() {
		rounds = 3
	}

	m := cluster.New(cluster.Config{
		Node:    cluster.FastOptions(),
		Factory: statemachine.NewKVMachine,
	})
	defer m.Close()

	gids := []types.GroupID{1, 2, 3, 4}
	smap, err := router.SplitShards(gids)
	if err != nil {
		t.Fatal(err)
	}
	home := []types.NodeID{"p1", "p2", "p3"}
	pool := []types.NodeID{"p1", "p2", "p3", "q1", "q2", "q3"}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	for _, gid := range gids {
		if err := m.CreateGroup(gid, home, nil); err != nil {
			t.Fatal(err)
		}
		if err := m.WaitServing(ctx, gid); err != nil {
			t.Fatal(err)
		}
	}
	rt := router.New(m, smap)

	// Routed clients: each keeps one (client, seq) pending until acknowledged;
	// the recorder spans the retries so ops applied during timeout windows
	// stay checkable. Keys are few so the register model sees real contention.
	vals := make([][]byte, 6)
	for i := range vals {
		vals[i] = []byte(fmt.Sprintf("v%d", i))
	}
	genOp := func(rng *rand.Rand) (string, []byte) {
		key := fmt.Sprintf("k%d", rng.Intn(8))
		switch rng.Intn(10) {
		case 0, 1, 2:
			return key, statemachine.EncodePut(key, vals[rng.Intn(len(vals))])
		case 3, 4, 5:
			return key, statemachine.EncodeGet(key)
		case 6:
			return key, statemachine.EncodeDelete(key)
		case 7, 8:
			return key, statemachine.EncodeAppend(key, []byte{byte('a' + rng.Intn(4))})
		default:
			return key, statemachine.EncodeCAS(key, vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))])
		}
	}
	rec := history.New()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	const clients = 4
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*997 + int64(g)))
			client := types.NodeID(fmt.Sprintf("rc%d", g))
			seq := uint64(1)
			key, op := genOp(rng)
			h := rec.Invoke(client, seq, op)
			for {
				select {
				case <-stop:
					return
				default:
				}
				sctx, scancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
				reply, err := rt.Submit(sctx, client, seq, key, op)
				scancel()
				if err != nil {
					continue // same seq; session dedup makes the retry safe
				}
				rec.Ok(h, reply)
				seq++
				key, op = genOp(rng)
				h = rec.Invoke(client, seq, op)
			}
		}(g)
	}

	// Nemesis: each round draws two distinct groups and reconfigures them
	// CONCURRENTLY onto random 3-of-6 member sets. Both shards' keyspaces are
	// in flight at once — the case where a cross-group ordering bug in the
	// shared transport/WAL would surface.
	nemRng := rand.New(rand.NewSource(seed * 31))
	drawMembers := func() []types.NodeID {
		perm := nemRng.Perm(len(pool))
		out := make([]types.NodeID, 3)
		for i := range out {
			out[i] = pool[perm[i]]
		}
		return out
	}
	moved := 0
	for round := 0; round < rounds; round++ {
		i := nemRng.Intn(len(gids))
		j := (i + 1 + nemRng.Intn(len(gids)-1)) % len(gids)
		ga, gb := gids[i], gids[j]
		ma, mb := drawMembers(), drawMembers()
		t.Logf("nemesis round %d: move group %d -> %v || group %d -> %v", round, ga, ma, gb, mb)
		var nwg sync.WaitGroup
		var mu sync.Mutex
		for _, mv := range []struct {
			gid     types.GroupID
			members []types.NodeID
		}{{ga, ma}, {gb, mb}} {
			nwg.Add(1)
			go func(gid types.GroupID, members []types.NodeID) {
				defer nwg.Done()
				rctx, rcancel := context.WithTimeout(ctx, 20*time.Second)
				defer rcancel()
				if _, err := m.Reconfigure(rctx, gid, members); err != nil {
					t.Logf("round %d: move group %d: %v", round, gid, err)
					return
				}
				mu.Lock()
				moved++
				mu.Unlock()
			}(mv.gid, mv.members)
		}
		nwg.Wait()
	}
	if moved < rounds {
		t.Fatalf("only %d successful concurrent moves over %d rounds; seed %d", moved, rounds, seed)
	}

	// Keep the load going until enough ops acknowledged for a meaningful check.
	minOk := 150 * clients
	floor := time.Now().Add(45 * time.Second)
	for {
		ok, _, _ := rec.Counts()
		if ok >= minOk || time.Now().After(floor) {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	rec.Drain()

	ops := rec.Ops()
	okN, infoN, failN := rec.Counts()
	t.Logf("history: %d ops (%d ok, %d info, %d fail); %d group moves", len(ops), okN, infoN, failN, moved)
	if okN < minOk {
		t.Fatalf("only %d acknowledged ops (wanted >= %d); seed %d", okN, minOk, seed)
	}
	res := lincheck.CheckHistory(lincheck.RegisterModel(), ops, lincheck.Options{Timeout: 25 * time.Second})
	t.Logf("lincheck: %d ops in %d partition(s) checked in %s", res.Ops, res.Partitions, res.Elapsed)
	if res.Unknown {
		t.Fatalf("checker exceeded its budget (seed %d)", seed)
	}
	if !res.Ok {
		t.Fatalf("history is NOT linearizable (seed %d):\n%s", seed, res.Counterexample)
	}
	if m.TotalViolations() != 0 {
		t.Fatalf("invariant violations (seed %d)", seed)
	}
}
