package repro

// One benchmark per experiment in DESIGN.md §4 / EXPERIMENTS.md. Each runs a
// complete scenario (cluster boot, load, reconfiguration, teardown) per
// iteration and reports the experiment's headline numbers as custom metrics,
// so `go test -bench=. -benchmem` regenerates every table and figure.
//
// Benchmarks intentionally use wall-clock scenarios (seconds each); run with
// -benchtime=1x for a single pass per experiment.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/reconfig"
)

func tuning() harness.Tuning { return harness.DefaultTuning() }

const (
	benchClients = 4
	benchRunDur  = 2 * time.Second
)

// BenchmarkT1StaticPaxosScaling — Table T1: throughput/latency of the static
// substrate at n ∈ {3,5,7,9}.
func BenchmarkT1StaticPaxosScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunT1StaticScaling(tuning(), []int{3, 5, 7, 9}, benchRunDur, benchClients)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + res.Render())
		for _, row := range res.Rows {
			b.ReportMetric(row.Throughput, fmt.Sprintf("ops/s/n%d", row.N))
		}
	}
}

// BenchmarkT1DurableBackends — Table T1d: throughput/latency of the static
// substrate with acceptor persistence on a real storage backend (mem as the
// no-durability reference vs the group-commit WAL with fsync).
func BenchmarkT1DurableBackends(b *testing.B) {
	backends := []string{cluster.StorageMem, cluster.StorageWAL}
	for i := 0; i < b.N; i++ {
		res, err := harness.RunT1Durable(tuning(), backends, 3, benchRunDur, benchClients)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + res.Render())
		for _, row := range res.Rows {
			b.ReportMetric(row.Throughput, "ops/s/"+row.Backend)
		}
	}
}

// BenchmarkF1ReconfigTimeline — Figure F1: committed-ops timeline around a
// member swap, per system.
func BenchmarkF1ReconfigTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, kind := range []harness.SystemKind{harness.Composed, harness.StopTheWorld, harness.Inband} {
			res, err := harness.RunDisruption(kind, tuning(), benchRunDur, benchClients, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.Log("\n" + res.Render())
			b.ReportMetric(res.Gap.Seconds()*1000, "gap-ms/"+kind.String())
			b.ReportMetric(res.Throughput, "ops/s/"+kind.String())
		}
	}
}

// BenchmarkT2Downtime — Table T2: longest commit gap per system per state
// size.
func BenchmarkT2Downtime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var results []harness.DisruptionResult
		for _, size := range []int{16 << 10, 256 << 10, 1 << 20} {
			for _, kind := range []harness.SystemKind{harness.Composed, harness.StopTheWorld, harness.Inband} {
				res, err := harness.RunDisruptionMedian(kind, tuning(), benchRunDur, benchClients, size)
				if err != nil {
					b.Fatal(err)
				}
				results = append(results, res)
				b.ReportMetric(res.Gap.Seconds()*1000,
					fmt.Sprintf("gap-ms/%s/%dKB", kind, size>>10))
			}
		}
		b.Log("\n" + harness.RenderDisruptionTable(results))
	}
}

// BenchmarkF2StateTransfer — Figure F2: composed reconfiguration latency vs
// snapshot size, with and without speculative start.
func BenchmarkF2StateTransfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunF2StateTransfer(tuning(), []int{16 << 10, 256 << 10, 1 << 20}, benchRunDur, benchClients)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + res.Render())
		for _, row := range res.Rows {
			tag := "spec"
			if !row.Speculative {
				tag = "nospec"
			}
			b.ReportMetric(row.ReconfigTook.Seconds()*1000,
				fmt.Sprintf("reconfig-ms/%s/%dKB", tag, row.StateBytes>>10))
		}
	}
}

// BenchmarkSnapshotTransfer — the state-transfer smoke benchmark behind
// `make bench-snapshot`: one member swap of the composed system with a
// multi-megabyte preloaded state. Headline metrics are the commit gap
// (client-visible downtime), the reconfigure call duration, and the longest
// time any node held its mutex capturing state at a wedge (the COW fork).
func BenchmarkSnapshotTransfer(b *testing.B) {
	const stateBytes = 4 << 20
	harness.WarmHeap(tuning(), stateBytes)
	for i := 0; i < b.N; i++ {
		res, err := harness.RunDisruption(harness.Composed, tuning(), benchRunDur, benchClients, stateBytes)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + res.Render())
		b.ReportMetric(res.Gap.Seconds()*1000, "gap-ms")
		b.ReportMetric(res.ReconfigTook.Seconds()*1000, "reconfig-ms")
		b.ReportMetric(float64(res.Transfer.MaxWedgeCapture.Microseconds()), "wedge-capture-us")
	}
}

// BenchmarkR2ReconfigShootout — Table R2 smoke behind `make bench-reconfig`:
// the reconfiguration-latency shootout at 8MB state. Headline metrics are
// time-to-first-decide in c+1 for the speculative vs wait-for-transfer
// composed variants (full member replacement — nothing can execute in c+1
// until a joiner has the state) and the client-visible commit gap per
// variant. The inband row is a single swap (it cannot full-replace).
func BenchmarkR2ReconfigShootout(b *testing.B) {
	const stateBytes = 8 << 20
	for i := 0; i < b.N; i++ {
		res, err := harness.RunR2ReconfigShootout(tuning(), stateBytes, benchRunDur, benchClients)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + res.Render())
		for _, row := range res.Rows {
			tag := row.System.String()
			if row.System == harness.Composed {
				if row.Speculative {
					tag += "-spec"
				} else {
					tag += "-wait"
				}
			}
			if row.TTFDKnown {
				b.ReportMetric(row.TTFD.Seconds()*1000, "ttfd-ms/"+tag)
			}
			b.ReportMetric(row.Gap.Seconds()*1000, "gap-ms/"+tag)
		}
	}
}

// BenchmarkK1Catchup — Table K1 smoke behind `make bench-catchup`: a member
// lags 50k decided slots at 8MB state, then the link heals. Headline metrics
// are time-to-caught-up for the checkpoint-fetch arm vs the NoCheckpoints
// full-replay ablation, restart-recovery time, and the worst node's retained
// decided slots (bounded by the checkpoint interval vs the whole log).
func BenchmarkK1Catchup(b *testing.B) {
	const (
		stateBytes = 8 << 20
		lagSlots   = 50000
	)
	for i := 0; i < b.N; i++ {
		res, err := harness.RunK1Catchup(tuning(), stateBytes, lagSlots, 32)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + res.Render())
		for _, row := range res.Rows {
			tag := "ckpt"
			if !row.Checkpoints {
				tag = "replay"
			}
			b.ReportMetric(row.CatchupTook.Seconds()*1000, "catchup-ms/"+tag)
			b.ReportMetric(row.RestartTook.Seconds()*1000, "restart-ms/"+tag)
			b.ReportMetric(float64(row.Retained), "retained-slots/"+tag)
		}
	}
}

// BenchmarkT3Failover — Table T3: crash-to-restored-service time.
func BenchmarkT3Failover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunT3Failover(tuning(), 2*benchRunDur, benchClients, 200*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + res.Render())
		b.ReportMetric(res.CrashToServe.Seconds()*1000, "crash-to-serve-ms")
		b.ReportMetric(res.GapAfterCrash.Seconds()*1000, "gap-ms")
	}
}

// BenchmarkF3Elastic — Figure F3: throughput timeline across the elastic
// chain 3→5→7→5→3.
func BenchmarkF3Elastic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunF3Elastic(tuning(), 800*time.Millisecond, benchClients)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + res.Render())
		b.ReportMetric(float64(res.Acked), "acked-ops")
	}
}

// BenchmarkT4MessageCost — Table T4: messages/bytes per op and per
// reconfiguration, per system.
func BenchmarkT4MessageCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunT4MessageCost(tuning(), 300, benchClients)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + res.Render())
		for _, row := range res.Rows {
			b.ReportMetric(row.MsgsPerOp, "msgs/op/"+row.System.String())
			b.ReportMetric(float64(row.ReconfigMsgs), "reconf-msgs/"+row.System.String())
		}
	}
}

// BenchmarkF4AlphaWindow — Figure F4: in-band throughput vs α with the
// composed system as the uncapped reference.
func BenchmarkF4AlphaWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunF4Alpha(tuning(), []int{1, 2, 4, 8, 16, 32}, 1500*time.Millisecond, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + res.Render())
		for _, row := range res.Rows {
			name := fmt.Sprintf("ops/s/alpha%d", row.Alpha)
			if row.Alpha == 0 {
				name = "ops/s/composed"
			}
			b.ReportMetric(row.Throughput, name)
		}
	}
}

// BenchmarkT5LatencyPercentiles — Table T5: latency distribution in steady
// state vs during the reconfiguration epoch, per system.
func BenchmarkT5LatencyPercentiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var results []harness.DisruptionResult
		for _, kind := range []harness.SystemKind{harness.Composed, harness.StopTheWorld, harness.Inband} {
			res, err := harness.RunDisruption(kind, tuning(), benchRunDur, benchClients, 0)
			if err != nil {
				b.Fatal(err)
			}
			results = append(results, res)
			b.ReportMetric(res.SteadyLat.P99.Seconds()*1000, "steady-p99-ms/"+kind.String())
			b.ReportMetric(res.DisruptLat.P99.Seconds()*1000, "reconf-p99-ms/"+kind.String())
		}
		b.Log("\n" + harness.RenderLatencyTable(results))
	}
}

// BenchmarkF5Crossover — Figure F5: disruption vs state size, composed vs
// in-band.
func BenchmarkF5Crossover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var results []harness.DisruptionResult
		for _, size := range []int{8 << 10, 512 << 10, 4 << 20} {
			for _, kind := range []harness.SystemKind{harness.Composed, harness.Inband} {
				res, err := harness.RunDisruptionMedian(kind, tuning(), benchRunDur, benchClients, size)
				if err != nil {
					b.Fatal(err)
				}
				results = append(results, res)
				b.ReportMetric(res.Gap.Seconds()*1000,
					fmt.Sprintf("gap-ms/%s/%dKB", kind, size>>10))
			}
		}
		b.Log("\n" + harness.RenderCrossover(results))
	}
}

// BenchmarkA1Batching — ablation A1: commands-per-slot batching on the
// static substrate under concurrent load.
func BenchmarkA1Batching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunA1Batching(tuning(), []int{1, 4, 16, 64}, 1500*time.Millisecond, 16)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + res.Render())
		for _, row := range res.Rows {
			b.ReportMetric(row.Throughput, fmt.Sprintf("ops/s/batch%d", row.BatchSize))
		}
	}
}

// BenchmarkBatchSizeDefault — the sweep behind the shipped
// paxos.Options.BatchSize default: candidate batch sizes on the durable WAL
// backend with synced writes, where commands-per-slot packing decides how
// many commands share one group-commit fsync. (A1 above keeps the in-memory
// ablation; this one is the deployment-relevant configuration.)
func BenchmarkBatchSizeDefault(b *testing.B) {
	t := tuning()
	t.Storage = cluster.StorageWAL
	t.SyncWrites = true
	for i := 0; i < b.N; i++ {
		res, err := harness.RunA1Batching(t, []int{1, 8, 16, 32}, 1500*time.Millisecond, 16)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + res.Render())
		for _, row := range res.Rows {
			b.ReportMetric(row.Throughput, fmt.Sprintf("ops/s/batch%d", row.BatchSize))
		}
	}
}

// BenchmarkPipelineDepth — the sweep behind the shipped
// paxos.Options.Pipeline default: proposer window depths on the durable WAL
// backend with synced writes, where the depth decides how many slot rounds
// share one group-commit fsync. Closed-loop phase only; the W1 table in
// EXPERIMENTS.md (`make bench-write`) adds the open-loop latency columns.
func BenchmarkPipelineDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunW1WritePath(tuning(), []int{1, 2, 4, 8, 16}, 1500*time.Millisecond, 64, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + res.Render())
		for _, row := range res.Rows {
			b.ReportMetric(row.Throughput, fmt.Sprintf("ops/s/depth%d", row.Pipeline))
		}
	}
}

// BenchmarkShardScaling — Table S1 smoke behind `make bench-shard`: the
// multi-group sharded runtime at 1 vs 8 groups over shared TCP-style
// transport and one fsynced WAL per process. Headline metrics are the
// aggregate routed write throughput per group count and the fsync
// coalescing ratio (group commits per physical fsync) at 8 groups. The
// full 1/2/4/8 table lives in `rsmbench -exp shard`.
func BenchmarkShardScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunShardScaling(tuning(), []int{1, 8}, benchRunDur, 64)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + res.Render())
		for _, row := range res.Rows {
			b.ReportMetric(row.Throughput, fmt.Sprintf("ops/s/groups%d", row.Groups))
			if row.SyncsPerOp > 0 {
				b.ReportMetric(row.GroupCommitsPerOp/row.SyncsPerOp,
					fmt.Sprintf("gc-per-sync/groups%d", row.Groups))
			}
		}
	}
}

// BenchmarkR1ReadScaling — Table R1: linearizable read fast path, serving
// mode x read ratio at n=3 on the durable WAL backend.
func BenchmarkR1ReadScaling(b *testing.B) {
	t := tuning()
	t.Storage = cluster.StorageWAL
	t.SyncWrites = true
	modes := []reconfig.ReadMode{reconfig.ReadModeLog, reconfig.ReadModeIndex, reconfig.ReadModeLease}
	for i := 0; i < b.N; i++ {
		res, err := harness.RunReadScaling(t, modes, []int{3}, []float64{0.9}, benchRunDur, 24)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + res.Render())
		for _, row := range res.Rows {
			b.ReportMetric(row.Throughput, fmt.Sprintf("ops/s/mode%d", uint8(row.Mode)))
		}
	}
}

// BenchmarkC1Megaload — Table C1: 100k open-loop client sessions driven
// through the real RPC client library (shared config directory + server
// admission control) across a reconfiguration storm. Headline metrics are
// goodput and ack p99; the silent-drop count must be 0 (every unserved submit
// is answered).
func BenchmarkC1Megaload(b *testing.B) {
	t := tuning()
	t.Node.SubmitQueue = 256
	for i := 0; i < b.N; i++ {
		res, err := harness.RunC1Megaload(t, 100000, 6000, 10*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + res.Render())
		if res.Smart.Silent != 0 {
			b.Fatalf("%d silent drops", res.Smart.Silent)
		}
		b.ReportMetric(res.Smart.Goodput, "ops/s/smart")
		b.ReportMetric(float64(res.Smart.Latency.P99)/1e6, "p99ms/smart")
	}
}
