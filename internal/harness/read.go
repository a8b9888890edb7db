package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/reconfig"
	"repro/internal/statemachine"
	"repro/internal/stats"
	"repro/internal/types"
	"repro/internal/workload"
)

// --- R1: linearizable read scaling -------------------------------------------------

// ReadRow is one (mode, cluster size, read ratio) steady-state measurement
// of the composed system.
type ReadRow struct {
	Mode       reconfig.ReadMode
	N          int
	Ratio      float64
	Throughput float64 // acked ops/s
	Latency    stats.Summary
	FastReads  int64 // reads served without a log append
	Fallbacks  int64 // fast-path reads rerouted through the log
	Fenced     int64 // fast-path reads refused by wedge fencing
	Dropped    int64 // engine inbox overflows during the run
}

// ReadResult is the read-scaling sweep.
type ReadResult struct {
	Rows []ReadRow
}

// readModeName names a mode for tables and flags.
func readModeName(m reconfig.ReadMode) string {
	switch m {
	case reconfig.ReadModeLog:
		return "log"
	case reconfig.ReadModeIndex:
		return "read-index"
	case reconfig.ReadModeLease:
		return "lease"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// RunReadScaling measures the composed system's throughput as the workload
// shifts toward reads, for each read-serving mode and cluster size. All
// clients target the leader (as a leader-based SMR deployment would), so
// the log path pays full consensus per read while read-index pays one
// heartbeat round shared across concurrent reads and leases pay nothing.
func RunReadScaling(tuning Tuning, modes []reconfig.ReadMode, sizes []int, ratios []float64, dur time.Duration, clients int) (ReadResult, error) {
	var res ReadResult
	for _, mode := range modes {
		for _, n := range sizes {
			for _, ratio := range ratios {
				runtime.GC()
				t := tuning
				t.Node.Reads = mode
				t.StorageDir = "" // fresh temp dir per run
				dep, err := newComposed(t, statemachine.NewKVMachine, nodeNames("n", n), nil)
				if err != nil {
					return res, err
				}
				if err := waitWarm(dep); err != nil {
					dep.Close()
					return res, err
				}
				trace := NewTrace()
				ctx, cancel := context.WithTimeout(context.Background(), dur)
				runLeaderLoad(ctx, dep, clients, workload.Profile{Keys: 1000, ReadRatio: ratio, Seed: 17}, trace)
				cancel()
				fast, fallback, fenced, dropped := dep.ReadStats()
				dep.Close()
				res.Rows = append(res.Rows, ReadRow{
					Mode:       mode,
					N:          n,
					Ratio:      ratio,
					Throughput: trace.Throughput(),
					Latency:    trace.LatencySummary(),
					FastReads:  fast,
					Fallbacks:  fallback,
					Fenced:     fenced,
					Dropped:    dropped,
				})
			}
		}
	}
	return res, nil
}

// runLeaderLoad is runLoad with leader-targeted submission: every worker
// sends to the replica currently believed to lead.
func runLeaderLoad(ctx context.Context, dep *composedDep, clients int, profile workload.Profile, trace *Trace) {
	var wg sync.WaitGroup
	base := workload.NewGenerator(profile)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gen := base.Split(i)
			clientID := types.NodeID(fmt.Sprintf("r%d", i))
			seq := uint64(0)
			for ctx.Err() == nil {
				seq++
				op := gen.Op()
				opStart := time.Now()
				for ctx.Err() == nil {
					attempt, cancel := context.WithTimeout(ctx, 500*time.Millisecond)
					_, err := dep.SubmitToLeader(attempt, clientID, seq, op)
					cancel()
					if err == nil {
						trace.Ack(time.Since(opStart))
						break
					}
					trace.Retry()
					select {
					case <-ctx.Done():
					case <-time.After(2 * time.Millisecond):
					}
				}
			}
		}(i)
	}
	wg.Wait()
}

// Render formats the read-scaling sweep.
func (r ReadResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			readModeName(row.Mode),
			fmt.Sprintf("%d", row.N),
			fmt.Sprintf("%.2f", row.Ratio),
			fmt.Sprintf("%.0f", row.Throughput),
			fmtDur(row.Latency.P50),
			fmtDur(row.Latency.P99),
			fmt.Sprintf("%d", row.FastReads),
			fmt.Sprintf("%d", row.Fallbacks),
			fmt.Sprintf("%d", row.Fenced),
			fmt.Sprintf("%d", row.Dropped),
		})
	}
	return "R1: linearizable read scaling — serving mode x read ratio (composed)\n" +
		renderTable([]string{"mode", "n", "reads", "ops/s", "p50", "p99", "fast", "fallback", "fenced", "dropped"}, rows)
}
