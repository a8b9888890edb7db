// Command rsmbench runs the experiments from EXPERIMENTS.md by ID and prints
// their tables and figures.
//
// Usage:
//
//	rsmbench -exp t1            # one experiment
//	rsmbench -exp all -dur 3s   # the full suite, 3s of load per run
//	rsmbench -exp lin -seed 7   # linearizability chaos check from a seed
//	rsmbench -exp read          # read fast path: mode x read-ratio sweep
//	rsmbench -exp write         # write path: pipeline depth sweep
//	rsmbench -exp reconfig      # R2 reconfig-latency shootout (speculative start)
//	rsmbench -exp catchup       # K1 lagging-replica catch-up (checkpoints vs replay)
//	rsmbench -exp mega          # C1 100k-session open-loop megaload, four-bucket accounting
//
// Experiment IDs: t1 t1d f1 t2 f2 t3 f3 t4 f4 t5 f5 lin read write shard reconfig catchup mega megalin (see DESIGN.md §4).
// Arms an experiment used to have and no longer does (W1 serial apply, C1
// naive client, T1d file backend) are in EXPERIMENTS.md, "Retired arms".
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/reconfig"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp     = flag.String("exp", "all", "experiment ID (t1,t1d,f1,t2,f2,t3,f3,t4,f4,t5,f5,lin,read,write,shard,reconfig,catchup,mega,megalin or all)")
		dur     = flag.Duration("dur", 2*time.Second, "load duration per run")
		clients = flag.Int("clients", 4, "closed-loop client count")
		seed    = flag.Int64("seed", 1, "nemesis schedule seed (lin experiment)")
		rate    = flag.Float64("rate", 6000, "offered open-loop load, ops/s (mega experiment)")
		cpuProf = flag.String("pprof", "", "write a CPU profile covering the selected experiments to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		// A stray positional arg (e.g. `rsmbench t1d` instead of
		// `rsmbench -exp t1d`) would otherwise silently run the full suite.
		fmt.Fprintf(os.Stderr, "unexpected argument %q (use -exp %s)\n", flag.Arg(0), flag.Arg(0))
		return 2
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}()
	}

	tun := harness.DefaultTuning()
	ids := strings.Split(strings.ToLower(*exp), ",")
	if *exp == "all" {
		ids = []string{"t1", "t1d", "f1", "t2", "f2", "t3", "f3", "t4", "f4", "t5", "f5"}
	}
	for _, id := range ids {
		fmt.Printf("=== experiment %s ===\n", strings.ToUpper(id))
		if err := runOne(id, tun, *dur, *clients, *seed, *rate); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s: %v\n", id, err)
			return 1
		}
		fmt.Println()
	}
	return 0
}

func runOne(id string, tun harness.Tuning, dur time.Duration, clients int, seed int64, rate float64) error {
	allSystems := []harness.SystemKind{harness.Composed, harness.StopTheWorld, harness.Inband}
	switch id {
	case "t1":
		res, err := harness.RunT1StaticScaling(tun, []int{3, 5, 7, 9}, dur, clients)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
	case "t1d":
		res, err := harness.RunT1Durable(tun,
			[]string{cluster.StorageMem, cluster.StorageWAL}, 3, dur, clients)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
	case "f1":
		for _, kind := range allSystems {
			res, err := harness.RunDisruption(kind, tun, dur, clients, 0)
			if err != nil {
				return err
			}
			fmt.Print(res.Render())
		}
	case "t2":
		var results []harness.DisruptionResult
		sizes := []int{16 << 10, 256 << 10, 1 << 20, 8 << 20}
		harness.WarmHeap(tun, sizes[len(sizes)-1])
		for _, size := range sizes {
			for _, kind := range allSystems {
				res, err := harness.RunDisruptionMedian(kind, tun, dur, clients, size)
				if err != nil {
					return err
				}
				results = append(results, res)
			}
		}
		fmt.Print(harness.RenderDisruptionTable(results))
	case "f2":
		res, err := harness.RunF2StateTransfer(tun, []int{16 << 10, 256 << 10, 1 << 20}, dur, clients)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
	case "t3":
		res, err := harness.RunT3Failover(tun, 2*dur, clients, 200*time.Millisecond)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
	case "f3":
		res, err := harness.RunF3Elastic(tun, dur/2, clients)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
	case "t4":
		res, err := harness.RunT4MessageCost(tun, 300, clients)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
	case "f4":
		res, err := harness.RunF4Alpha(tun, []int{1, 2, 4, 8, 16, 32}, dur, 2*clients)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
	case "t5":
		var results []harness.DisruptionResult
		for _, kind := range allSystems {
			res, err := harness.RunDisruption(kind, tun, dur, clients, 0)
			if err != nil {
				return err
			}
			results = append(results, res)
		}
		fmt.Print(harness.RenderLatencyTable(results))
	case "f5":
		var results []harness.DisruptionResult
		f5sizes := []int{8 << 10, 512 << 10, 4 << 20}
		harness.WarmHeap(tun, f5sizes[len(f5sizes)-1])
		for _, size := range f5sizes {
			for _, kind := range []harness.SystemKind{harness.Composed, harness.Inband} {
				res, err := harness.RunDisruptionMedian(kind, tun, dur, clients, size)
				if err != nil {
					return err
				}
				results = append(results, res)
			}
		}
		fmt.Print(harness.RenderCrossover(results))
	case "read":
		// R1 runs on the durable WAL backend with synced writes: that is
		// where the fast path's "no log append, no fsync" advantage is
		// real rather than an artifact of free in-memory writes. More
		// clients than the other experiments so concurrent reads share
		// probe rounds.
		rt := tun
		rt.Storage = cluster.StorageWAL
		rt.SyncWrites = true
		rc := clients
		if rc < 24 {
			rc = 24
		}
		res, err := harness.RunReadScaling(rt,
			[]reconfig.ReadMode{reconfig.ReadModeLog, reconfig.ReadModeIndex, reconfig.ReadModeLease},
			[]int{3, 5}, []float64{0, 0.5, 0.9, 0.99}, dur, rc)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
	case "write":
		// W1 runs on the durable WAL backend with synced writes — the
		// configuration where pipeline depth governs how many fsync+broadcast
		// rounds overlap — and drives a write-only workload. Many more
		// clients than the other experiments so the closed-loop phase
		// saturates even deep pipelines, and an open-loop arrival rate
		// chosen above the unpipelined configuration's capacity but below
		// the pipelined one's, so the fixed-rate phase separates "keeping
		// up" from "underwater" instead of idling below both.
		wt := tun
		wc := clients
		if wc < 64 {
			wc = 64
		}
		res, err := harness.RunW1WritePath(wt, []int{1, 2, 4, 8, 16}, dur, wc, 4000)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
	case "shard":
		// S1 drives the multi-group sharded runtime on the durable WAL
		// backend: the same 3 processes and client count at every row, only
		// the group count changes. Enough clients that 8 independent event
		// loops all stay busy; the interesting columns are aggregate ops/s
		// (rising with groups on multi-core) and syncs/op (falling — the
		// shared WAL coalesces fsyncs across groups).
		sc := clients
		if sc < 64 {
			sc = 64
		}
		res, err := harness.RunShardScaling(tun, []int{1, 2, 4, 8}, dur, sc)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
	case "reconfig":
		// R2 is the flagship comparative experiment: speculative successor
		// start vs the wait-for-transfer ablation vs the in-band baseline,
		// at 8MB of preloaded state — the size where the transfer truly
		// gates the successor and time-to-first-decide separates the
		// designs.
		res, err := harness.RunR2ReconfigShootout(tun, 8<<20, dur, clients)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
	case "catchup":
		// K1: a member lags 50k decided slots behind at 8MB of state, then
		// the link heals. The checkpoint arm fetches the survivors' newest
		// mid-log checkpoint (the truncated log cannot be replayed); the
		// NoCheckpoints ablation replays every missed slot. More clients
		// than the default so driving the 50k-slot lag doesn't dominate
		// wall-clock time.
		cc := clients
		if cc < 32 {
			cc = 32
		}
		res, err := harness.RunK1Catchup(tun, 8<<20, 50000, cc)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
	case "mega":
		// C1 drives 100k open-loop sessions (or -clients if >= 1000) through
		// a reconfiguration storm via the real client library (shared
		// directory + admission control). The offered rate sits at the
		// storm-capacity edge, where shedding is what keeps every op
		// accounted.
		sessions := 100000
		if clients >= 1000 {
			sessions = clients
		}
		mdur := dur
		if mdur < 10*time.Second {
			mdur = 10 * time.Second
		}
		mt := tun
		mt.Node.SubmitQueue = 256
		res, err := harness.RunC1Megaload(mt, sessions, rate, mdur)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		if res.Smart.Silent != 0 {
			return fmt.Errorf("%d silent drops", res.Smart.Silent)
		}
	case "megalin":
		res, err := harness.RunMegaLin(tun, seed, 10000, 2000, dur)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		if res.Unknown || !res.Linearizable {
			return fmt.Errorf("linearizability check did not pass (seed %d)", seed)
		}
	case "lin":
		res, err := harness.RunLin(tun, seed, dur, clients)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		if res.Unknown || !res.Linearizable {
			return fmt.Errorf("linearizability check did not pass (seed %d)", seed)
		}
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}
