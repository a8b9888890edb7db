package harness

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/router"
	"repro/internal/statemachine"
	"repro/internal/stats"
	"repro/internal/types"
)

// --- S1: multi-group sharded runtime scaling ------------------------------------------

// ShardRow is one group-count measurement of the sharded runtime: the same
// three processes, the same client count, the same durable WAL — only the
// number of RSM groups the keyspace is partitioned across changes.
type ShardRow struct {
	Groups     int
	Throughput float64 // closed-loop acked routed writes/s, all groups
	Latency    stats.Summary
	// SyncsPerOp is physical fsyncs per acknowledged op, summed over the
	// three shared WALs. Falling as groups rise is the shared-WAL coalescing
	// evidence: more groups feed the same group commit, so each fsync
	// absorbs more commands.
	SyncsPerOp float64
	// GroupCommitsPerOp is engine bursts ending in one WAL sync per acked
	// op, summed across groups.
	GroupCommitsPerOp float64
	// AppendsPerOp is WAL record appends per acked op (work that scales
	// with ops regardless of batching; a sanity baseline for SyncsPerOp).
	AppendsPerOp float64
	QueueHigh    int64 // max apply-queue high water across groups
	Dropped      int64 // inbound messages dropped, summed across groups
	PerGroup     []cluster.GroupStats
}

// ShardResult is the S1 sweep.
type ShardResult struct {
	Procs   int
	Clients int
	Cores   int
	Rows    []ShardRow
}

// RunShardScaling measures aggregate committed-write throughput of the
// multi-group runtime at each group count: three processes host G groups
// (n=3 each) over shared transport and one fsynced WAL per process, a
// hash-partitioned router spreads a write-only workload across every
// group, and the closed-loop client count stays fixed so rows are
// comparable. Groups are independent RSM instances, so on a multi-core
// host G event loops commit in parallel while their records coalesce into
// the same per-process fsync.
func RunShardScaling(tuning Tuning, groupCounts []int, dur time.Duration, clients int) (ShardResult, error) {
	res := ShardResult{Procs: 3, Clients: clients, Cores: runtime.GOMAXPROCS(0)}
	for _, g := range groupCounts {
		row, err := runShardCell(tuning, g, dur, clients)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runShardCell(tuning Tuning, nGroups int, dur time.Duration, clients int) (ShardRow, error) {
	runtime.GC()
	m := cluster.NewGroupManager(cluster.Config{
		Transport:  tuning.Net,
		Node:       tuning.Node,
		Storage:    cluster.StorageWAL,
		SyncWrites: true,
	})
	defer m.Close()

	gids := make([]types.GroupID, nGroups)
	for i := range gids {
		gids[i] = types.GroupID(i + 1)
	}
	smap, err := router.SplitShards(gids)
	if err != nil {
		return ShardRow{}, err
	}
	procs := nodeNames("p", 3)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, gid := range gids {
		if err := m.CreateGroup(gid, procs, router.PartitionedFactory(smap.ShardsOf(gid), smap.Gen)); err != nil {
			return ShardRow{}, err
		}
		if err := m.WaitGroupServing(ctx, gid); err != nil {
			return ShardRow{}, fmt.Errorf("group %d never served: %w", gid, err)
		}
	}
	ctl := router.NewController(m, smap)
	rt := router.New(m, ctl)

	// Warm every group: one routed write must land in each before the
	// measured window, so leader election is not on the clock.
	if err := warmShards(ctx, rt, smap); err != nil {
		return ShardRow{}, err
	}

	// Snapshot WAL counters so the row measures only the loaded window.
	syncs0, appends0 := storeIO(m, procs)
	commits0 := groupCommits(m)

	trace := NewTrace()
	loadCtx, loadCancel := context.WithTimeout(context.Background(), dur)
	var wg sync.WaitGroup
	value := []byte(fmt.Sprintf("%0128d", 7))
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)*7919 + 1))
			clientID := types.NodeID(fmt.Sprintf("s%d", i))
			seq := uint64(0)
			for loadCtx.Err() == nil {
				seq++
				key := fmt.Sprintf("key-%05d", rng.Intn(4096))
				op := statemachine.EncodePut(key, value)
				opStart := time.Now()
				for loadCtx.Err() == nil {
					attempt, cancel := context.WithTimeout(loadCtx, 2*time.Second)
					_, err := rt.Submit(attempt, clientID, seq, key, op)
					cancel()
					if err == nil {
						trace.Ack(time.Since(opStart))
						break
					}
					trace.Retry()
					select {
					case <-loadCtx.Done():
					case <-time.After(2 * time.Millisecond):
					}
				}
			}
		}(i)
	}
	wg.Wait()
	loadCancel()

	syncs1, appends1 := storeIO(m, procs)
	commits1 := groupCommits(m)
	row := ShardRow{
		Groups:     nGroups,
		Throughput: trace.Throughput(),
		Latency:    trace.LatencySummary(),
		PerGroup:   m.PerGroupStats(),
	}
	if acked := trace.Acked(); acked > 0 {
		row.SyncsPerOp = float64(syncs1-syncs0) / float64(acked)
		row.AppendsPerOp = float64(appends1-appends0) / float64(acked)
		row.GroupCommitsPerOp = float64(commits1-commits0) / float64(acked)
	}
	for _, gs := range row.PerGroup {
		if gs.ApplyQueueHighWater > row.QueueHigh {
			row.QueueHigh = gs.ApplyQueueHighWater
		}
		row.Dropped += gs.DroppedInbound
	}
	if v := m.TotalViolations(); v != 0 {
		return row, fmt.Errorf("harness: %d invariant violations at %d groups", v, nGroups)
	}
	return row, nil
}

// warmShards routes one write into every shard owner so each group elects a
// leader and applies at least once before measurement starts.
func warmShards(ctx context.Context, rt *router.Router, smap router.ShardMap) error {
	need := groupCount(smap)
	warmed := make(map[types.GroupID]bool)
	seq := uint64(0)
	for i := 0; len(warmed) < need && i < 100000; i++ {
		key := fmt.Sprintf("warm-%d", i)
		_, gid := smap.OwnerOf(key)
		if warmed[gid] {
			continue
		}
		seq++
		deadline := time.Now().Add(15 * time.Second)
		for {
			attempt, cancel := context.WithTimeout(ctx, time.Second)
			_, err := rt.Submit(attempt, "warmup", seq, key, statemachine.EncodePut(key, []byte("1")))
			cancel()
			if err == nil {
				warmed[gid] = true
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("harness: group %d never warmed: %w", gid, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if len(warmed) < need {
		return fmt.Errorf("harness: only %d of %d groups warmed", len(warmed), need)
	}
	return nil
}

func groupCount(smap router.ShardMap) int {
	seen := make(map[types.GroupID]bool)
	for _, g := range smap.Owner {
		seen[g] = true
	}
	return len(seen)
}

// storeIO sums the shared WALs' fsync and append counters across processes.
func storeIO(m *cluster.GroupManager, procs []types.NodeID) (syncs, appends int64) {
	for _, id := range procs {
		s, a, ok := m.StoreIO(id)
		if ok {
			syncs += s
			appends += a
		}
	}
	return syncs, appends
}

// groupCommits sums the per-group engine group-commit counters.
func groupCommits(m *cluster.GroupManager) int64 {
	var total int64
	for _, gs := range m.PerGroupStats() {
		total += gs.GroupCommits
	}
	return total
}

// Render formats the shard scaling sweep: the aggregate table, the speedup
// column against the single-group row, and per-group health lines.
func (r ShardResult) Render() string {
	var base float64
	if len(r.Rows) > 0 {
		base = r.Rows[0].Throughput
	}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		speedup := "-"
		if base > 0 {
			speedup = fmt.Sprintf("%.2fx", row.Throughput/base)
		}
		coalesce := "-"
		if row.SyncsPerOp > 0 {
			coalesce = fmt.Sprintf("%.2f", row.GroupCommitsPerOp/row.SyncsPerOp)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Groups),
			fmt.Sprintf("%.0f", row.Throughput),
			speedup,
			fmtDur(row.Latency.P50),
			fmtDur(row.Latency.P99),
			fmt.Sprintf("%.3f", row.SyncsPerOp),
			fmt.Sprintf("%.3f", row.GroupCommitsPerOp),
			coalesce,
			fmt.Sprintf("%.2f", row.AppendsPerOp),
			fmt.Sprintf("%d", row.QueueHigh),
			fmt.Sprintf("%d", row.Dropped),
		})
	}
	out := fmt.Sprintf("S1: sharded runtime — groups x aggregate write throughput (%d procs, n=3/group, %d clients, WAL fsync, %d cores)\n",
		r.Procs, r.Clients, r.Cores) +
		"one router, hash-partitioned keyspace; gc/sync > 1 = cross-group fsync coalescing (group commits per physical fsync)\n" +
		renderTable([]string{"groups", "ops/s", "speedup", "p50", "p99", "syncs/op", "gcommit/op", "gc/sync", "appends/op", "q-high", "dropped"}, rows)
	for _, row := range r.Rows {
		out += fmt.Sprintf("per-group (G=%d):", row.Groups)
		for _, gs := range row.PerGroup {
			out += fmt.Sprintf(" g%d{applied=%d dropped=%d qhigh=%d gcommits=%d}",
				gs.Group, gs.Applied, gs.DroppedInbound, gs.ApplyQueueHighWater, gs.GroupCommits)
		}
		out += "\n"
	}
	return out
}
