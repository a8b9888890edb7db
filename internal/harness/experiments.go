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

// Trace records acknowledged operations with completion timestamps and
// latencies, the raw material for every throughput/latency/downtime figure.
type Trace struct {
	mu      sync.Mutex
	start   time.Time
	acks    []time.Time
	lats    []time.Duration
	marks   []stats.Mark
	retries int64
}

// NewTrace starts a trace at now.
func NewTrace() *Trace { return &Trace{start: time.Now()} }

// Ack records one acknowledged operation.
func (t *Trace) Ack(lat time.Duration) {
	now := time.Now()
	t.mu.Lock()
	t.acks = append(t.acks, now)
	t.lats = append(t.lats, lat)
	t.mu.Unlock()
}

// Retry counts one failed attempt (timeout/redirect) before success.
func (t *Trace) Retry() {
	t.mu.Lock()
	t.retries++
	t.mu.Unlock()
}

// Mark labels the current instant.
func (t *Trace) Mark(label string) {
	now := time.Now()
	t.mu.Lock()
	t.marks = append(t.marks, stats.Mark{At: now, Label: label})
	t.mu.Unlock()
}

// Acked returns the number of acknowledged operations.
func (t *Trace) Acked() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.acks)
}

// Retries returns the number of failed attempts.
func (t *Trace) Retries() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.retries
}

// Marks returns the labeled instants.
func (t *Trace) Marks() []stats.Mark {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]stats.Mark, len(t.marks))
	copy(out, t.marks)
	return out
}

// Throughput returns acked ops per second over the trace's whole life.
func (t *Trace) Throughput() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.acks) == 0 {
		return 0
	}
	dur := t.acks[len(t.acks)-1].Sub(t.start).Seconds()
	if dur <= 0 {
		return 0
	}
	return float64(len(t.acks)) / dur
}

// Series bins ack counts into windows of the given width.
func (t *Trace) Series(bin time.Duration) []int64 {
	t.mu.Lock()
	acks := make([]time.Time, len(t.acks))
	copy(acks, t.acks)
	start := t.start
	t.mu.Unlock()
	if len(acks) == 0 {
		return nil
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i].Before(acks[j]) })
	n := int(acks[len(acks)-1].Sub(start)/bin) + 1
	out := make([]int64, n)
	for _, a := range acks {
		idx := int(a.Sub(start) / bin)
		if idx >= 0 && idx < n {
			out[idx]++
		}
	}
	return out
}

// GapAround returns the longest ack gap in [at-w, at+w]. The window is
// clamped to the observed ack range: time after the last ack of the whole
// trace carries no information (the load has ended) and is not counted.
func (t *Trace) GapAround(at time.Time, w time.Duration) time.Duration {
	t.mu.Lock()
	acks := make([]time.Time, len(t.acks))
	copy(acks, t.acks)
	t.mu.Unlock()
	lo, hi := at.Add(-w), at.Add(w)
	if len(acks) > 0 {
		last := acks[0]
		for _, a := range acks {
			if a.After(last) {
				last = a
			}
		}
		if hi.After(last) {
			hi = last
		}
		if t.start.After(lo) {
			lo = t.start
		}
		if !hi.After(lo) {
			return 0
		}
	}
	var in []time.Time
	for _, a := range acks {
		if !a.Before(lo) && !a.After(hi) {
			in = append(in, a)
		}
	}
	if len(in) == 0 {
		return 2 * w
	}
	sort.Slice(in, func(i, j int) bool { return in[i].Before(in[j]) })
	longest := in[0].Sub(lo)
	for i := 1; i < len(in); i++ {
		if g := in[i].Sub(in[i-1]); g > longest {
			longest = g
		}
	}
	if tail := hi.Sub(in[len(in)-1]); tail > longest {
		longest = tail
	}
	return longest
}

// LatencyWindow summarizes latencies of acks completed in [lo, hi].
func (t *Trace) LatencyWindow(lo, hi time.Time) stats.Summary {
	t.mu.Lock()
	var samples []time.Duration
	for i, a := range t.acks {
		if !a.Before(lo) && !a.After(hi) {
			samples = append(samples, t.lats[i])
		}
	}
	t.mu.Unlock()
	return stats.Summarize(samples)
}

// LatencySummary summarizes all latencies.
func (t *Trace) LatencySummary() stats.Summary {
	t.mu.Lock()
	samples := make([]time.Duration, len(t.lats))
	copy(samples, t.lats)
	t.mu.Unlock()
	return stats.Summarize(samples)
}

// --- load driving ----------------------------------------------------------------

// runLoad drives `clients` closed-loop workers against dep until ctx is
// done, recording into trace. Each worker retries its current sequence
// number until acknowledged (at-most-once is preserved by the session layer).
func runLoad(ctx context.Context, dep Deployment, clients int, profile workload.Profile, trace *Trace) {
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
					_, err := dep.Submit(attempt, clientID, seq, op)
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
func preload(ctx context.Context, dep Deployment, bytes int) (int, error) {
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
			_, err = dep.Submit(a, "preloader", uint64(i+1), op)
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

// waitWarm blocks until the deployment acknowledges a probe command,
// i.e. a leader exists and the pipeline works.
func waitWarm(dep Deployment) error {
	deadline := time.Now().Add(15 * time.Second)
	seq := uint64(0)
	for time.Now().Before(deadline) {
		seq++
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := dep.Submit(ctx, "warmup", seq, statemachine.EncodePut("warm", []byte("1")))
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

// --- T1: static substrate scaling ------------------------------------------------

// T1Row is one cluster size's steady-state measurement.
type T1Row struct {
	N          int
	Throughput float64 // acked ops/s
	Latency    stats.Summary
}

// T1Result is the static-Paxos scaling table.
type T1Result struct {
	Rows []T1Row
}

// RunT1StaticScaling measures the static engine (via the stop-the-world
// service, which is exactly "static Paxos + sessions" when never
// reconfigured) at several cluster sizes.
func RunT1StaticScaling(tuning Tuning, sizes []int, dur time.Duration, clients int) (T1Result, error) {
	var res T1Result
	for _, n := range sizes {
		runtime.GC()
		dep, err := NewDeployment(StopTheWorld, tuning, statemachine.NewKVMachine, nodeNames("n", n), nil)
		if err != nil {
			return res, err
		}
		if err := waitWarm(dep); err != nil {
			dep.Close()
			return res, err
		}
		trace := NewTrace()
		ctx, cancel := context.WithTimeout(context.Background(), dur)
		runLoad(ctx, dep, clients, workload.Profile{Keys: 1000, ReadRatio: 0.5, Seed: 42}, trace)
		cancel()
		dep.Close()
		res.Rows = append(res.Rows, T1Row{N: n, Throughput: trace.Throughput(), Latency: trace.LatencySummary()})
	}
	return res, nil
}

// --- T1d: durable-backend comparison ----------------------------------------------

// T1DurableRow is one storage backend's steady-state measurement.
type T1DurableRow struct {
	Backend    string
	Throughput float64 // acked ops/s
	Latency    stats.Summary
}

// T1DurableResult compares storage backends with acceptor persistence
// actually hitting the filesystem.
type T1DurableResult struct {
	N    int
	Rows []T1DurableRow
}

// RunT1Durable measures the static engine at one cluster size across storage
// backends. On-disk backends run with SyncWrites so every accept pays for
// durability before replying.
func RunT1Durable(tuning Tuning, backends []string, n int, dur time.Duration, clients int) (T1DurableResult, error) {
	res := T1DurableResult{N: n}
	for _, backend := range backends {
		runtime.GC()
		tb := tuning
		tb.Storage = backend
		tb.StorageDir = "" // fresh temp dir per backend run
		tb.SyncWrites = backend != cluster.StorageMem
		dep, err := NewDeployment(StopTheWorld, tb, statemachine.NewKVMachine, nodeNames("n", n), nil)
		if err != nil {
			return res, err
		}
		if err := waitWarm(dep); err != nil {
			dep.Close()
			return res, err
		}
		trace := NewTrace()
		ctx, cancel := context.WithTimeout(context.Background(), dur)
		runLoad(ctx, dep, clients, workload.Profile{Keys: 1000, ReadRatio: 0.5, Seed: 42}, trace)
		cancel()
		dep.Close()
		res.Rows = append(res.Rows, T1DurableRow{Backend: backend, Throughput: trace.Throughput(), Latency: trace.LatencySummary()})
	}
	return res, nil
}

// --- F1/T2/T5: reconfiguration disruption ------------------------------------------

// DisruptionResult measures one system's behaviour around a member swap.
type DisruptionResult struct {
	System        SystemKind
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
	Transfer      TransferStats // composed only: chunk counters + wedge capture
	// TTFD is the time from issuing the reconfiguration to the first moment
	// any brand-new member learned a decided slot of the successor
	// configuration — the headline R2 metric. Composed only; TTFDKnown is
	// false for baselines (no per-config engine to observe) and when the
	// swap added no new members.
	TTFD      time.Duration
	TTFDKnown bool
}

// RunDisruption runs one system through: warm-up, optional preload, steady
// load, a member swap (n3 → s1) at mid-run, more steady load.
func RunDisruption(kind SystemKind, tuning Tuning, dur time.Duration, clients, stateBytes int) (DisruptionResult, error) {
	return RunDisruptionTo(kind, tuning, dur, clients, stateBytes,
		[]types.NodeID{"s1"}, []types.NodeID{"n1", "n2", "s1"})
}

// WarmHeap runs one throwaway disruption at the given state size and
// discards the result. The first multi-megabyte scenario in a process pays a
// one-time heap-growth/page-zeroing stall (hundreds of milliseconds at 8MB,
// and it persists under GOGC=off, so it is not collector pacing) that would
// otherwise land on whichever variant happens to run first in a sweep.
func WarmHeap(tuning Tuning, stateBytes int) {
	if stateBytes < 1<<20 {
		return
	}
	_, _ = RunDisruption(Composed, tuning, 500*time.Millisecond, 2, stateBytes)
}

// RunDisruptionMedian runs the disruption scenario three times and returns
// the run with the median commit gap, damping single-run scheduler and GC
// noise in the headline downtime numbers.
func RunDisruptionMedian(kind SystemKind, tuning Tuning, dur time.Duration, clients, stateBytes int) (DisruptionResult, error) {
	runs := make([]DisruptionResult, 0, 3)
	for i := 0; i < 3; i++ {
		r, err := RunDisruption(kind, tuning, dur, clients, stateBytes)
		if err != nil {
			return DisruptionResult{}, err
		}
		runs = append(runs, r)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Gap < runs[j].Gap })
	return runs[1], nil
}

// RunDisruptionTo is the general form: spares to start, and the target
// member set for the mid-run reconfiguration.
func RunDisruptionTo(kind SystemKind, tuning Tuning, dur time.Duration, clients, stateBytes int, spares, target []types.NodeID) (DisruptionResult, error) {
	runtime.GC() // level the heap between experiment runs
	initial := nodeNames("n", 3)
	dep, err := NewDeployment(kind, tuning, statemachine.NewKVMachine, initial, spares)
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
	trace.Mark("reconfig")
	recStart := time.Now()
	rerr := dep.Reconfigure(context.Background(), target)
	recTook := time.Since(recStart)
	trace.Mark("reconfig-done")
	wg.Wait()
	cancel()
	if rerr != nil {
		return DisruptionResult{}, fmt.Errorf("reconfigure: %w", rerr)
	}

	const bin = 10 * time.Millisecond
	marks := trace.Marks()
	markAt := marks[0].At
	res := DisruptionResult{
		System:        kind,
		Series:        trace.Series(bin),
		Bin:           bin,
		MarkBin:       int(markAt.Sub(trace.start) / bin),
		ReconfigTook:  recTook,
		Gap:           trace.GapAround(markAt.Add(recTook/2), recTook/2+time.Second),
		SteadyLat:     trace.LatencyWindow(trace.start, markAt.Add(-100*time.Millisecond)),
		DisruptLat:    trace.LatencyWindow(markAt.Add(-100*time.Millisecond), markAt.Add(recTook+time.Second)),
		Throughput:    trace.Throughput(),
		Retries:       trace.Retries(),
		StateKeys:     keys,
		ApproxStateB:  stateBytes,
		ViolationsSum: dep.Violations(),
	}
	if cd, ok := dep.(*composedDep); ok {
		res.Transfer = cd.TransferStats()
		// Time-to-first-decide in the successor configuration, measured at
		// the brand-new members. The decision-routing timestamp is recorded
		// identically under SpecOn and SpecOff, so the comparison is fair:
		// without speculation a joiner's engine only exists after install,
		// which is exactly the latency the metric is meant to expose.
		var joiners []types.NodeID
		known := map[types.NodeID]bool{}
		for _, id := range initial {
			known[id] = true
		}
		newID := types.ConfigID(0)
		for _, id := range target {
			if !known[id] {
				joiners = append(joiners, id)
				if n := cd.Node(id); n != nil {
					if cfg := n.CurrentConfig(); cfg.ID > newID {
						newID = cfg.ID
					}
				}
			}
		}
		if len(joiners) > 0 && newID > 0 {
			if at, ok := cd.FirstDecideIn(joiners, newID); ok {
				res.TTFD = at.Sub(recStart)
				res.TTFDKnown = true
			}
		}
	}
	return res, nil
}

// --- F2: state transfer cost (composed, speculation ablation) ------------------------

// F2Row is one (state size, speculation) measurement of the composed system.
type F2Row struct {
	StateBytes   int
	Speculative  bool
	ReconfigTook time.Duration
	Gap          time.Duration
}

// F2Result is the state-transfer sweep.
type F2Result struct {
	Rows []F2Row
}

// RunF2StateTransfer sweeps snapshot size for the composed system with and
// without speculative successor start. The reconfiguration is a FULL
// replacement — every successor member is brand new — so no replica holds the
// state locally and the transfer truly gates execution; this is the scenario
// where speculation (ordering while the snapshot streams) pays.
func RunF2StateTransfer(tuning Tuning, sizes []int, dur time.Duration, clients int) (F2Result, error) {
	var res F2Result
	spares := []types.NodeID{"s1", "s2", "s3"}
	for _, size := range sizes {
		for _, spec := range []bool{true, false} {
			t := tuning
			if !spec {
				t.Node.SpeculativeStart = reconfig.SpecOff
			}
			r, err := RunDisruptionTo(Composed, t, dur, clients, size, spares, spares)
			if err != nil {
				return res, fmt.Errorf("size %d spec %v: %w", size, spec, err)
			}
			res.Rows = append(res.Rows, F2Row{
				StateBytes:   size,
				Speculative:  spec,
				ReconfigTook: r.ReconfigTook,
				Gap:          r.Gap,
			})
		}
	}
	return res, nil
}

// --- R2: reconfig-latency shootout (speculative vs wait-for-transfer vs inband) -----

// R2Row is one variant of the reconfiguration-latency shootout.
type R2Row struct {
	System       SystemKind
	Speculative  bool // composed only
	FullReplace  bool // every successor member is brand new
	TTFD         time.Duration
	TTFDKnown    bool
	ReconfigTook time.Duration
	Gap          time.Duration
	DipDepth     float64       // fraction of steady throughput lost at the trough
	DipDur       time.Duration // contiguous window below half the steady rate
	Retries      int64         // client-side re-submissions over the run
	Resubmits    int64         // composed only: server-side pending re-proposals
	SpecDecides  int64         // composed only: decisions learned before install
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
// experiment: composed with speculative start, composed with the
// wait-for-transfer ablation (Options.SpeculativeStart = SpecOff), and the
// in-band baseline, at one preloaded state size. The composed variants run a
// FULL member replacement (every successor member brand new), the scenario
// where nothing can execute in c+1 until a joiner holds the state — so
// time-to-first-decide isolates exactly what speculation buys. The in-band
// baseline cannot replace its whole member set (new members catch up by
// replaying the shared log from surviving members; no out-of-band snapshot
// path exists), so its row is the T2-style single swap n3 → s1 — a strictly
// easier scenario, noted in the rendered table.
//
// Each variant reports the median-of-3 run (by TTFD where measurable, else by
// commit gap), damping scheduler noise in the headline numbers.
func RunR2ReconfigShootout(tuning Tuning, stateBytes int, dur time.Duration, clients int) (R2Result, error) {
	WarmHeap(tuning, stateBytes)
	res := R2Result{StateBytes: stateBytes}
	fullSpares := []types.NodeID{"s1", "s2", "s3"}
	swapSpares := []types.NodeID{"s1"}
	swapTarget := []types.NodeID{"n1", "n2", "s1"}
	variants := []struct {
		kind SystemKind
		spec bool
		full bool
	}{
		{Composed, true, true},
		{Composed, false, true},
		{Inband, false, false},
	}
	for _, v := range variants {
		t := tuning
		if v.kind == Composed && !v.spec {
			t.Node.SpeculativeStart = reconfig.SpecOff
		}
		spares, target := fullSpares, fullSpares
		if !v.full {
			spares, target = swapSpares, swapTarget
		}
		runs := make([]DisruptionResult, 0, 3)
		for i := 0; i < 3; i++ {
			r, err := RunDisruptionTo(v.kind, t, dur, clients, stateBytes, spares, target)
			if err != nil {
				return res, fmt.Errorf("r2 %s spec=%v: %w", v.kind, v.spec, err)
			}
			runs = append(runs, r)
		}
		sort.Slice(runs, func(i, j int) bool {
			// TTFD-known runs sort first (among themselves by TTFD), unknown
			// runs last by gap; mixing the two keys directly would not be a
			// strict weak ordering and sort.Slice could return any order.
			if runs[i].TTFDKnown != runs[j].TTFDKnown {
				return runs[i].TTFDKnown
			}
			if runs[i].TTFDKnown {
				return runs[i].TTFD < runs[j].TTFD
			}
			return runs[i].Gap < runs[j].Gap
		})
		r := runs[1]
		depth, ddur := dipStats(r.Series, r.Bin, r.MarkBin)
		res.Rows = append(res.Rows, R2Row{
			System:       v.kind,
			Speculative:  v.spec,
			FullReplace:  v.full,
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

// --- T3: failover -----------------------------------------------------------------

// T3Result measures replacing a crashed replica.
type T3Result struct {
	DetectDelay   time.Duration // injected monitoring delay
	ReconfigTook  time.Duration
	CrashToServe  time.Duration // crash -> first ack after replacement done
	GapAfterCrash time.Duration // longest ack gap around the crash+repair
	Throughput    float64
}

// RunT3Failover crashes a member mid-run, waits a monitoring delay, then
// replaces it with a spare through reconfiguration.
func RunT3Failover(tuning Tuning, dur time.Duration, clients int, detectDelay time.Duration) (T3Result, error) {
	dep, err := newComposed(tuning, statemachine.NewKVMachine, nodeNames("n", 3), []types.NodeID{"s1"})
	if err != nil {
		return T3Result{}, err
	}
	defer dep.Close()
	if err := waitWarm(dep); err != nil {
		return T3Result{}, err
	}

	trace := NewTrace()
	ctx, cancel := context.WithTimeout(context.Background(), dur)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runLoad(ctx, dep, clients, workload.Profile{Keys: 500, ReadRatio: 0.5, Seed: 9}, trace)
	}()

	time.Sleep(dur / 2)
	trace.Mark("crash")
	crashAt := time.Now()
	dep.net.Isolate("n3") // hard crash of n3

	time.Sleep(detectDelay)
	recStart := time.Now()
	rerr := dep.Reconfigure(context.Background(), []types.NodeID{"n1", "n2", "s1"})
	recTook := time.Since(recStart)
	trace.Mark("replaced")
	firstAfter := time.Now()
	wg.Wait()
	cancel()
	if rerr != nil {
		return T3Result{}, fmt.Errorf("replace: %w", rerr)
	}
	return T3Result{
		DetectDelay:   detectDelay,
		ReconfigTook:  recTook,
		CrashToServe:  firstAfter.Sub(crashAt),
		GapAfterCrash: trace.GapAround(crashAt.Add(detectDelay), detectDelay+recTook+time.Second),
		Throughput:    trace.Throughput(),
	}, nil
}

// --- F3: elastic chain -------------------------------------------------------------

// F3Result is the elastic scale-out/in timeline.
type F3Result struct {
	Series []int64
	Bin    time.Duration
	Marks  []stats.Mark
	Start  time.Time
	Acked  int
	Chain  []string // configuration sizes traversed
}

// RunF3Elastic grows 3→5→7 and shrinks back 7→5→3 under load.
func RunF3Elastic(tuning Tuning, phase time.Duration, clients int) (F3Result, error) {
	all := nodeNames("n", 7)
	dep, err := NewDeployment(Composed, tuning, statemachine.NewKVMachine, all[:3], all[3:])
	if err != nil {
		return F3Result{}, err
	}
	defer dep.Close()
	if err := waitWarm(dep); err != nil {
		return F3Result{}, err
	}

	steps := [][]types.NodeID{all[:5], all[:7], all[:5], all[:3]}
	total := phase * time.Duration(len(steps)+1)
	trace := NewTrace()
	ctx, cancel := context.WithTimeout(context.Background(), total)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runLoad(ctx, dep, clients, workload.Profile{Keys: 500, ReadRatio: 0.5, Dist: workload.Zipf, Seed: 3}, trace)
	}()

	chain := []string{"3"}
	for _, members := range steps {
		time.Sleep(phase)
		trace.Mark(fmt.Sprintf("->%d", len(members)))
		if err := dep.Reconfigure(context.Background(), members); err != nil {
			cancel()
			wg.Wait()
			return F3Result{}, err
		}
		chain = append(chain, fmt.Sprintf("%d", len(members)))
	}
	wg.Wait()
	cancel()

	const bin = 20 * time.Millisecond
	return F3Result{
		Series: trace.Series(bin),
		Bin:    bin,
		Marks:  trace.Marks(),
		Start:  trace.start,
		Acked:  trace.Acked(),
		Chain:  chain,
	}, nil
}

// --- T4: message cost ------------------------------------------------------------

// T4Row is one system's protocol cost accounting.
type T4Row struct {
	System       SystemKind
	Ops          int
	MsgsPerOp    float64
	BytesPerOp   float64
	ReconfigMsgs int64
	ReconfigByte int64
}

// T4Result is the cost table.
type T4Result struct {
	Rows []T4Row
}

// RunT4MessageCost measures messages/bytes per committed op at steady state
// and the total message cost of one member-swap reconfiguration (including
// any state transfer), per system.
func RunT4MessageCost(tuning Tuning, ops, clients int) (T4Result, error) {
	var res T4Result
	for _, kind := range []SystemKind{Composed, StopTheWorld, Inband} {
		dep, err := NewDeployment(kind, tuning, statemachine.NewKVMachine, nodeNames("n", 3), []types.NodeID{"s1"})
		if err != nil {
			return res, err
		}
		if err := waitWarm(dep); err != nil {
			dep.Close()
			return res, err
		}

		dep.ResetNetStats()
		done := 0
		seq := uint64(0)
		for done < ops {
			seq++
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			_, err := dep.Submit(ctx, "coster", seq, statemachine.EncodePut(fmt.Sprintf("k%d", seq), []byte("v")))
			cancel()
			if err == nil {
				done++
			}
		}
		st := dep.NetStats()
		row := T4Row{
			System:     kind,
			Ops:        done,
			MsgsPerOp:  float64(st.MessagesSent) / float64(done),
			BytesPerOp: float64(st.BytesSent) / float64(done),
		}

		dep.ResetNetStats()
		if err := dep.Reconfigure(context.Background(), []types.NodeID{"n1", "n2", "s1"}); err != nil {
			dep.Close()
			return res, err
		}
		// Give announces/fetches a moment to finish, then snapshot.
		time.Sleep(300 * time.Millisecond)
		rst := dep.NetStats()
		row.ReconfigMsgs = rst.MessagesSent
		row.ReconfigByte = rst.BytesSent
		dep.Close()
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// --- F4: α-window pipeline penalty ---------------------------------------------------

// F4Row is one α's throughput.
type F4Row struct {
	Alpha      int // 0 = composed reference (unbounded pipeline)
	Throughput float64
	Stalls     int64
}

// F4Result is the α sweep.
type F4Result struct {
	Rows []F4Row
}

// RunF4Alpha sweeps the in-band window and adds the composed system (whose
// pipeline is not capped by reconfiguration ability) as the reference.
func RunF4Alpha(tuning Tuning, alphas []int, dur time.Duration, clients int) (F4Result, error) {
	var res F4Result
	run := func(kind SystemKind, alpha int) (float64, int64, error) {
		t := tuning
		t.Alpha = alpha
		dep, err := NewDeployment(kind, t, statemachine.NewKVMachine, nodeNames("n", 3), nil)
		if err != nil {
			return 0, 0, err
		}
		defer dep.Close()
		if err := waitWarm(dep); err != nil {
			return 0, 0, err
		}
		trace := NewTrace()
		ctx, cancel := context.WithTimeout(context.Background(), dur)
		runLoad(ctx, dep, clients, workload.Profile{Keys: 1000, ReadRatio: 0, Seed: 5}, trace)
		cancel()
		var stalls int64
		if ib, ok := dep.(*inbandDep); ok {
			for _, svc := range ib.svcs {
				stalls += svc.Engine().Stats().WindowStalls
			}
		}
		return trace.Throughput(), stalls, nil
	}
	for _, a := range alphas {
		thr, stalls, err := run(Inband, a)
		if err != nil {
			return res, fmt.Errorf("alpha %d: %w", a, err)
		}
		res.Rows = append(res.Rows, F4Row{Alpha: a, Throughput: thr, Stalls: stalls})
	}
	thr, _, err := run(Composed, 4)
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, F4Row{Alpha: 0, Throughput: thr})
	return res, nil
}

// --- A1 (ablation): command batching in the static engine -----------------------

// A1Row is one batch size's steady-state measurement.
type A1Row struct {
	BatchSize  int
	Throughput float64
	MsgsPerOp  float64
	Latency    stats.Summary
}

// A1Result is the batching ablation sweep.
type A1Result struct {
	Rows []A1Row
}

// RunA1Batching sweeps the leader's commands-per-slot packing on the static
// substrate under concurrent load.
func RunA1Batching(tuning Tuning, batchSizes []int, dur time.Duration, clients int) (A1Result, error) {
	var res A1Result
	for _, b := range batchSizes {
		runtime.GC()
		t := tuning
		t.Node.Paxos.BatchSize = b
		dep, err := NewDeployment(StopTheWorld, t, statemachine.NewKVMachine, nodeNames("n", 3), nil)
		if err != nil {
			return res, err
		}
		if err := waitWarm(dep); err != nil {
			dep.Close()
			return res, err
		}
		dep.ResetNetStats()
		trace := NewTrace()
		ctx, cancel := context.WithTimeout(context.Background(), dur)
		runLoad(ctx, dep, clients, workload.Profile{Keys: 1000, ReadRatio: 0, Seed: 13}, trace)
		cancel()
		st := dep.NetStats()
		dep.Close()
		row := A1Row{BatchSize: b, Throughput: trace.Throughput(), Latency: trace.LatencySummary()}
		if n := trace.Acked(); n > 0 {
			row.MsgsPerOp = float64(st.MessagesSent) / float64(n)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
