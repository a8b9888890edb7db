package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/statemachine"
	"repro/internal/stats"
	"repro/internal/types"
	"repro/internal/workload"
)

// --- open-loop load driving ---------------------------------------------------------

// OpenLoadResult is one open-loop (fixed arrival rate) measurement.
//
// Latency is measured from each operation's INTENDED start time — the instant
// the arrival schedule said it should have been issued — not from when the
// generator actually got around to sending it. A closed-loop driver that
// stalls behind a slow server silently stops sampling exactly when the system
// is at its worst (coordinated omission); anchoring at the intended start
// charges every queuing delay to the server, the way a real open-world
// arrival process would experience it.
type OpenLoadResult struct {
	Rate     float64 // requested arrival rate, ops/s
	Acked    int     // operations acknowledged
	Achieved float64 // acked ops/s over the run
	Latency  stats.Summary
	// Skew is actual-send minus intended-start per operation: how far behind
	// schedule the generator itself fell. Near-zero skew means the latency
	// column is a faithful open-loop measurement; large skew means the
	// generator saturated and even intended-start anchoring understates.
	Skew stats.Summary
}

// runOpenLoad drives `clients` workers at a combined fixed arrival rate until
// ctx is done. Each worker owns an interleaved slice of the schedule and
// issues its operations sequentially: when an op completes after its
// successor's intended start, the successor is sent immediately and the wait
// it already accrued is part of its measured latency.
func runOpenLoad(ctx context.Context, dep Deployment, rate float64, clients int, profile workload.Profile) OpenLoadResult {
	if clients < 1 {
		clients = 1
	}
	interval := time.Duration(float64(clients) / rate * float64(time.Second))
	lat := &stats.LatencyRecorder{}
	skew := &stats.LatencyRecorder{}
	base := workload.NewGenerator(profile)
	start := time.Now()
	var acked int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gen := base.Split(i)
			clientID := types.NodeID(fmt.Sprintf("ol%d", i))
			// Stagger workers across one interval so combined arrivals are
			// evenly spaced at the requested rate.
			intended := start.Add(time.Duration(int64(interval) * int64(i) / int64(clients)))
			seq := uint64(0)
			for ctx.Err() == nil {
				if wait := time.Until(intended); wait > 0 {
					select {
					case <-ctx.Done():
						return
					case <-time.After(wait):
					}
				}
				skew.Record(time.Since(intended))
				seq++
				op := gen.Op()
				for ctx.Err() == nil {
					attempt, cancel := context.WithTimeout(ctx, 2*time.Second)
					_, err := dep.Submit(attempt, clientID, seq, op)
					cancel()
					if err == nil {
						lat.Record(time.Since(intended))
						mu.Lock()
						acked++
						mu.Unlock()
						break
					}
					select {
					case <-ctx.Done():
					case <-time.After(2 * time.Millisecond):
					}
				}
				intended = intended.Add(interval)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	res := OpenLoadResult{
		Rate:    rate,
		Acked:   int(acked),
		Latency: lat.Summarize(),
		Skew:    skew.Summarize(),
	}
	if elapsed > 0 {
		res.Achieved = float64(res.Acked) / elapsed
	}
	return res
}

// --- W1: write-path pipelining ---------------------------------------------------------

// W1Row is one pipeline-depth measurement of the composed system under
// write-heavy load with durable (fsynced WAL) acceptors.
type W1Row struct {
	Pipeline   int
	Throughput float64 // closed-loop saturated acked ops/s
	Closed     stats.Summary
	Open       OpenLoadResult // fixed-rate run against the same deployment
	QueueHigh  int64          // apply-queue high watermark over the run
	Stalls     int64          // engine consumers blocked on a full apply queue
}

// W1Result is the write-path sweep.
type W1Result struct {
	N       int
	Clients int
	Rows    []W1Row
}

// RunW1WritePath measures committed-write throughput and latency across
// pipeline depths, at n=3 with the fsynced WAL backend. Each cell runs a
// closed-loop saturation phase (throughput) and then an open-loop fixed-rate
// phase (coordinated-omission-safe latency) against a fresh deployment.
// openRate <= 0 skips the open-loop phase — the benchmark configuration,
// which only needs the throughput column.
func RunW1WritePath(tuning Tuning, depths []int, dur time.Duration, clients int, openRate float64) (W1Result, error) {
	res := W1Result{N: 3, Clients: clients}
	profile := workload.Profile{Keys: 1000, ReadRatio: 0, Seed: 7}
	for _, depth := range depths {
		runtime.GC()
		t := tuning
		t.Storage = cluster.StorageWAL
		t.SyncWrites = true
		t.StorageDir = "" // fresh temp dir per cell
		t.Node.Paxos.Pipeline = depth
		dep, err := newComposed(t, statemachine.NewKVMachine, nodeNames("n", 3), nil)
		if err != nil {
			return res, err
		}
		if err := waitWarm(dep); err != nil {
			dep.Close()
			return res, err
		}
		trace := NewTrace()
		ctx, cancel := context.WithTimeout(context.Background(), dur)
		runLoad(ctx, dep, clients, profile, trace)
		cancel()

		var open OpenLoadResult
		if openRate > 0 {
			ctx, cancel = context.WithTimeout(context.Background(), dur)
			open = runOpenLoad(ctx, dep, openRate, clients, profile)
			cancel()
		}

		var queueHigh, stalls int64
		for _, id := range nodeNames("n", 3) {
			if n := dep.Node(id); n != nil {
				st := n.Stats()
				if st.ApplyQueueHighWater > queueHigh {
					queueHigh = st.ApplyQueueHighWater
				}
				stalls += st.ApplyStalls
			}
		}
		dep.Close()
		res.Rows = append(res.Rows, W1Row{
			Pipeline:   depth,
			Throughput: trace.Throughput(),
			Closed:     trace.LatencySummary(),
			Open:       open,
			QueueHigh:  queueHigh,
			Stalls:     stalls,
		})
	}
	return res, nil
}

// Render formats the write-path sweep.
func (r W1Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Pipeline),
			fmt.Sprintf("%.0f", row.Throughput),
			fmtDur(row.Closed.P50),
			fmt.Sprintf("%.0f", row.Open.Achieved),
			fmtDur(row.Open.Latency.P50),
			fmtDur(row.Open.Latency.P99),
			fmtDur(row.Open.Latency.P999),
			fmtDur(row.Open.Skew.P99),
			fmt.Sprintf("%d", row.QueueHigh),
			fmt.Sprintf("%d", row.Stalls),
		})
	}
	return fmt.Sprintf("W1: write path — pipeline depth (composed, n=%d, %d clients, WAL fsync)\n", r.N, r.Clients) +
		"closed-loop saturation + open-loop fixed rate (latency from intended start)\n" +
		renderTable([]string{"depth", "ops/s", "cl-p50", "ol-ops/s", "ol-p50", "ol-p99", "ol-p999", "skew-p99", "q-high", "stalls"}, rows)
}
