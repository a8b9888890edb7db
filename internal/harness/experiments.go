package harness

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/reconfig"
	"repro/internal/statemachine"
	"repro/internal/stats"
	"repro/internal/types"
	"repro/internal/workload"
)

// Trace is the acknowledged-operations timeline of one load run — the acks
// live in the embedded stats.Timeline (Count, Series, GapAround) — plus what
// the timeline does not hold: each ack's latency and the failed attempts.
type Trace struct {
	*stats.Timeline
	mu      sync.Mutex
	acks    []ack
	retries int64
}

type ack struct {
	at  time.Time
	lat time.Duration
}

// NewTrace starts a trace at now.
func NewTrace() *Trace { return &Trace{Timeline: stats.NewTimeline()} }

// Ack records one acknowledged operation.
func (t *Trace) Ack(lat time.Duration) {
	t.Record()
	t.mu.Lock()
	t.acks = append(t.acks, ack{time.Now(), lat})
	t.mu.Unlock()
}

// Retry counts one failed attempt (timeout/redirect) before success.
func (t *Trace) Retry() {
	t.mu.Lock()
	t.retries++
	t.mu.Unlock()
}

// Retries returns the number of failed attempts.
func (t *Trace) Retries() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.retries
}

// Throughput returns acked ops per second from the trace's start to its last
// ack.
func (t *Trace) Throughput() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.acks) == 0 {
		return 0
	}
	dur := t.acks[len(t.acks)-1].at.Sub(t.Start()).Seconds()
	if dur <= 0 {
		return 0
	}
	return float64(len(t.acks)) / dur
}

// LatencyWindow summarizes latencies of acks completed in [lo, hi].
func (t *Trace) LatencyWindow(lo, hi time.Time) stats.Summary {
	t.mu.Lock()
	var samples []time.Duration
	for _, a := range t.acks {
		if !a.at.Before(lo) && !a.at.After(hi) {
			samples = append(samples, a.lat)
		}
	}
	t.mu.Unlock()
	return stats.Summarize(samples)
}

// --- load driving ----------------------------------------------------------------

// runLoad drives `clients` closed-loop workers against dep's group 0 until
// ctx is done, recording into trace. Each worker retries its current sequence
// number until acknowledged (at-most-once is preserved by the session layer).
func runLoad(ctx context.Context, dep *cluster.Cluster, clients int, profile workload.Profile, trace *Trace) {
	var wg sync.WaitGroup
	base := workload.NewGenerator(profile)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gen := base.Split(i)
			clientID := types.NodeID(fmt.Sprintf("w%d", i))
			seq := uint64(0)
			for ctx.Err() == nil {
				seq++
				op := gen.Op()
				opStart := time.Now()
				for ctx.Err() == nil {
					attempt, cancel := context.WithTimeout(ctx, 500*time.Millisecond)
					_, err := dep.Submit(attempt, 0, clientID, seq, op)
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

// preload fills the KV machine with ~bytes of state using large values so
// the fill itself stays fast; it returns the number of keys written.
func preload(ctx context.Context, dep *cluster.Cluster, bytes int) (int, error) {
	const valueSize = 8192
	keys := bytes / valueSize
	if keys < 1 {
		keys = 1
	}
	ops := workload.PreloadOps(keys, valueSize)
	for i, op := range ops {
		var err error
		for attempt := 0; attempt < 100; attempt++ {
			a, cancel := context.WithTimeout(ctx, time.Second)
			_, err = dep.Submit(a, 0, "preloader", uint64(i+1), op)
			cancel()
			if err == nil {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if err != nil {
			return keys, fmt.Errorf("preload op %d: %w", i, err)
		}
	}
	return keys, nil
}

// waitWarm blocks until group 0 acknowledges a probe command,
// i.e. a leader exists and the pipeline works.
func waitWarm(dep *cluster.Cluster) error {
	deadline := time.Now().Add(15 * time.Second)
	seq := uint64(0)
	for time.Now().Before(deadline) {
		seq++
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := dep.Submit(ctx, 0, "warmup", seq, statemachine.EncodePut("warm", []byte("1")))
		cancel()
		if err == nil {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("harness: deployment never warmed up")
}

// nodeNames generates n1..nN.
func nodeNames(prefix string, n int) []types.NodeID {
	out := make([]types.NodeID, n)
	for i := range out {
		out[i] = types.NodeID(fmt.Sprintf("%s%d", prefix, i+1))
	}
	return out
}

// --- T2: reconfiguration disruption -------------------------------------------------

// DisruptionResult measures the composed system's behaviour around a member
// swap.
type DisruptionResult struct {
	Series        []int64 // acked ops per bin
	Bin           time.Duration
	MarkBin       int           // bin index where the reconfiguration was issued
	ReconfigTook  time.Duration // duration of the Reconfigure call
	Gap           time.Duration // longest ack gap around the reconfiguration
	SteadyLat     stats.Summary // latency before the reconfiguration
	DisruptLat    stats.Summary // latency around the reconfiguration
	Throughput    float64
	Retries       int64
	StateKeys     int
	ApproxStateB  int
	ViolationsSum int64
	Transfer      TransferStats // chunk counters + wedge capture
	// TTFD is the time from issuing the reconfiguration to the first moment
	// any brand-new member learned a decided slot of the successor
	// configuration — the headline R2 metric. TTFDKnown is false when the
	// swap added no new members.
	TTFD      time.Duration
	TTFDKnown bool
}

// RunDisruption runs the composed system through: warm-up, optional preload,
// steady load, a member swap (n3 → s1) at mid-run, more steady load.
func RunDisruption(tuning Tuning, dur time.Duration, clients, stateBytes int) (DisruptionResult, error) {
	return RunDisruptionTo(tuning, dur, clients, stateBytes,
		[]types.NodeID{"s1"}, []types.NodeID{"n1", "n2", "s1"})
}

// WarmHeap runs one throwaway disruption at the given state size and
// discards the result. The first multi-megabyte scenario in a process pays a
// one-time heap-growth/page-zeroing stall (hundreds of milliseconds at 8MB,
// and it persists under GOGC=off, so it is not collector pacing) that would
// otherwise land on whichever run happens to come first in a sweep.
func WarmHeap(tuning Tuning, stateBytes int) {
	if stateBytes < 1<<20 {
		return
	}
	_, _ = RunDisruption(tuning, 500*time.Millisecond, 2, stateBytes)
}

// medianOf3 runs the scenario three times and returns the middle run under
// less, damping single-run scheduler and GC noise in the headline numbers.
func medianOf3(less func(a, b DisruptionResult) bool, run func() (DisruptionResult, error)) (DisruptionResult, error) {
	runs := make([]DisruptionResult, 0, 3)
	for i := 0; i < 3; i++ {
		r, err := run()
		if err != nil {
			return DisruptionResult{}, err
		}
		runs = append(runs, r)
	}
	sort.Slice(runs, func(i, j int) bool { return less(runs[i], runs[j]) })
	return runs[1], nil
}

func byGap(a, b DisruptionResult) bool { return a.Gap < b.Gap }

// byTTFD orders TTFD-known runs first (among themselves by TTFD), unknown
// runs last by gap; mixing the two keys directly would not be a strict weak
// ordering and sort.Slice could return any order.
func byTTFD(a, b DisruptionResult) bool {
	if a.TTFDKnown != b.TTFDKnown {
		return a.TTFDKnown
	}
	if a.TTFDKnown {
		return a.TTFD < b.TTFD
	}
	return a.Gap < b.Gap
}

// RunDisruptionMedian returns the median-of-3 disruption run by commit gap.
func RunDisruptionMedian(tuning Tuning, dur time.Duration, clients, stateBytes int) (DisruptionResult, error) {
	return medianOf3(byGap, func() (DisruptionResult, error) {
		return RunDisruption(tuning, dur, clients, stateBytes)
	})
}

// DisruptionSweep holds one disruption run per state size.
type DisruptionSweep []DisruptionResult

// RunDisruptionSweep is the sweep behind T2: the median-of-3 member swap at
// each preloaded state size, after one discarded warm-up at the largest
// (last) size.
func RunDisruptionSweep(tuning Tuning, sizes []int, dur time.Duration, clients int) (DisruptionSweep, error) {
	WarmHeap(tuning, sizes[len(sizes)-1])
	var results DisruptionSweep
	for _, size := range sizes {
		res, err := RunDisruptionMedian(tuning, dur, clients, size)
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}

// RunDisruptionTo is the general form: spares to start, and the target
// member set for the mid-run reconfiguration.
func RunDisruptionTo(tuning Tuning, dur time.Duration, clients, stateBytes int, spares, target []types.NodeID) (DisruptionResult, error) {
	runtime.GC() // level the heap between experiment runs
	initial := nodeNames("n", 3)
	dep, err := deploy(tuning, statemachine.NewKVMachine, initial, spares)
	if err != nil {
		return DisruptionResult{}, err
	}
	defer dep.Close()
	if err := waitWarm(dep); err != nil {
		return DisruptionResult{}, err
	}
	keys := 0
	if stateBytes > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		keys, err = preload(ctx, dep, stateBytes)
		cancel()
		if err != nil {
			return DisruptionResult{}, err
		}
		runtime.GC() // the preload burst leaves a large dead heap behind
	}

	trace := NewTrace()
	ctx, cancel := context.WithTimeout(context.Background(), dur)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runLoad(ctx, dep, clients, workload.Profile{Keys: 500, ReadRatio: 0.5, Seed: 7}, trace)
	}()

	time.Sleep(dur / 2)
	recStart := time.Now()
	_, rerr := dep.Reconfigure(context.Background(), 0, target)
	recTook := time.Since(recStart)
	wg.Wait()
	cancel()
	if rerr != nil {
		return DisruptionResult{}, fmt.Errorf("reconfigure: %w", rerr)
	}

	const bin = 10 * time.Millisecond
	res := DisruptionResult{
		Series:        trace.Series(bin),
		Bin:           bin,
		MarkBin:       int(recStart.Sub(trace.Start()) / bin),
		ReconfigTook:  recTook,
		Gap:           trace.GapAround(recStart.Add(recTook/2), recTook/2+time.Second),
		SteadyLat:     trace.LatencyWindow(trace.Start(), recStart.Add(-100*time.Millisecond)),
		DisruptLat:    trace.LatencyWindow(recStart.Add(-100*time.Millisecond), recStart.Add(recTook+time.Second)),
		Throughput:    trace.Throughput(),
		Retries:       trace.Retries(),
		StateKeys:     keys,
		ApproxStateB:  stateBytes,
		ViolationsSum: dep.TotalViolations(),
		Transfer:      transferStats(dep),
	}
	// Time-to-first-decide in the successor configuration, measured at the
	// brand-new members. The decision-routing timestamp is recorded
	// identically under SpecOn and SpecOff, so the comparison is fair:
	// without speculation a joiner's engine only exists after install, which
	// is exactly the latency the metric is meant to expose.
	var joiners []types.NodeID
	known := map[types.NodeID]bool{}
	for _, id := range initial {
		known[id] = true
	}
	newID := types.ConfigID(0)
	for _, id := range target {
		if !known[id] {
			joiners = append(joiners, id)
			if n := dep.Node(0, id); n != nil {
				if cfg := n.CurrentConfig(); cfg.ID > newID {
					newID = cfg.ID
				}
			}
		}
	}
	if len(joiners) > 0 && newID > 0 {
		if at, ok := firstDecideIn(dep, joiners, newID); ok {
			res.TTFD = at.Sub(recStart)
			res.TTFDKnown = true
		}
	}
	return res, nil
}

// --- R2: reconfig-latency shootout (speculative vs wait-for-transfer) -----------

// R2Row is one variant of the reconfiguration-latency shootout.
type R2Row struct {
	Speculative  bool
	TTFD         time.Duration
	TTFDKnown    bool
	ReconfigTook time.Duration
	Gap          time.Duration
	DipDepth     float64       // fraction of steady throughput lost at the trough
	DipDur       time.Duration // contiguous window below half the steady rate
	Retries      int64         // client-side re-submissions over the run
	Resubmits    int64         // server-side pending re-proposals
	SpecDecides  int64         // decisions learned before install
	Throughput   float64
}

// R2Result is the shootout at one state size.
type R2Result struct {
	StateBytes int
	Rows       []R2Row
}

// dipStats characterizes the throughput dip after the reconfiguration mark:
// depth is the fraction of steady-state throughput lost at the deepest bin,
// dur is the length of the first contiguous window at or after the mark whose
// rate stays below half the steady rate. The final bin is excluded (it is
// truncated by the run deadline).
func dipStats(series []int64, bin time.Duration, markBin int) (depth float64, dur time.Duration) {
	if markBin <= 0 || markBin >= len(series) {
		return 0, 0
	}
	var sum int64
	for _, v := range series[:markBin] {
		sum += v
	}
	steady := float64(sum) / float64(markBin)
	if steady <= 0 {
		return 0, 0
	}
	tail := series[markBin:]
	if len(tail) > 1 {
		tail = tail[:len(tail)-1]
	}
	trough := tail[0]
	for _, v := range tail {
		if v < trough {
			trough = v
		}
	}
	depth = 1 - float64(trough)/steady
	if depth < 0 {
		depth = 0
	}
	half := steady / 2
	i := 0
	for i < len(tail) && float64(tail[i]) >= half {
		i++
	}
	j := i
	for j < len(tail) && float64(tail[j]) < half {
		j++
	}
	return depth, time.Duration(j-i) * bin
}

// RunR2ReconfigShootout is the flagship head-to-head reconfiguration-latency
// experiment: the composed system with speculative start against its
// wait-for-transfer ablation (Options.SpeculativeStart = SpecOff), at one
// preloaded state size. Both run a FULL member replacement (every successor
// member brand new), the scenario where nothing can execute in c+1 until a
// joiner holds the state — so time-to-first-decide isolates exactly what
// speculation buys.
//
// Each variant reports the median-of-3 run (by TTFD where measurable, else by
// commit gap), damping scheduler noise in the headline numbers.
func RunR2ReconfigShootout(tuning Tuning, stateBytes int, dur time.Duration, clients int) (R2Result, error) {
	WarmHeap(tuning, stateBytes)
	res := R2Result{StateBytes: stateBytes}
	members := []types.NodeID{"s1", "s2", "s3"}
	for _, spec := range []bool{true, false} {
		t := tuning
		if !spec {
			t.Node.SpeculativeStart = reconfig.SpecOff
		}
		r, err := medianOf3(byTTFD, func() (DisruptionResult, error) {
			return RunDisruptionTo(t, dur, clients, stateBytes, members, members)
		})
		if err != nil {
			return res, fmt.Errorf("r2 spec=%v: %w", spec, err)
		}
		depth, ddur := dipStats(r.Series, r.Bin, r.MarkBin)
		res.Rows = append(res.Rows, R2Row{
			Speculative:  spec,
			TTFD:         r.TTFD,
			TTFDKnown:    r.TTFDKnown,
			ReconfigTook: r.ReconfigTook,
			Gap:          r.Gap,
			DipDepth:     depth,
			DipDur:       ddur,
			Retries:      r.Retries,
			Resubmits:    r.Transfer.NodeResubmits,
			SpecDecides:  r.Transfer.SpecDecides,
			Throughput:   r.Throughput,
		})
	}
	return res, nil
}
