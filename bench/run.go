package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/types"
)

// processStart is as close to process start as Go code gets; set-up time and
// every span are measured from it.
var processStart = time.Now()

// An untraced run sets the deployment up several times and reports the median
// as setup_s, as the benchmark driver asks: it compares medians of setup_s, and
// one set-up of a few milliseconds does not repeat from run to run (10-45 ms
// cold on steady-write). The first set-up is the run's own, from process start
// to the first acknowledged op (plus the preload, on the churn workload), and is
// also printed alone as setup_first_s; the others follow the measurement:
// setUpsMost in all, fewer once the repeats have taken setUpsBudget (the churn
// workload's take 0.7 s each), never fewer than setUpsLeast.
const (
	setUpsLeast  = 3
	setUpsMost   = 15
	setUpsBudget = 5 * time.Second
)

// envInfo records where a number was taken, so that results from different
// boxes are never compared blind.
type envInfo struct {
	NProc         int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	GoVersion     string `json:"go_version"`
	Commit        string `json:"commit"`
	Fabric        string `json:"fabric"`
	InjectedDelay string `json:"injected_delay"`
}

// currentEnv describes this process; worked out once.
var currentEnv = sync.OnceValue(func() envInfo {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "unknown" { // go run stamps no revision
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return envInfo{
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Commit:        commit,
		Fabric:        "loopback TCP (transport.NewTCPNetwork), one process",
		InjectedDelay: "0",
	}
})

func (e envInfo) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s commit=%s fabric=%q injected_delay=%s",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit, e.Fabric, e.InjectedDelay)
}

// runResult is everything one run of one workload measured.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Traced    bool              `json:"traced"`
	Env       envInfo           `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Diag      map[string]metric `json:"diagnostics"`
	WallS     float64           `json:"wall_s"`
}

// setUp boots a deployment and returns once the first op of session 0 is
// acknowledged (a leader exists) and, on the churn workload, the 8 MB of
// state is loaded: from then on the service is in the state the warm-up
// expects.
func setUp(spec workloadSpec, initial []types.NodeID, seed int64, tr *tracer) (*service, []*session, error) {
	sv, err := startService(spec, initial, tr)
	if err != nil {
		return nil, nil, err
	}
	sessions := make([]*session, spec.Sessions)
	for i := range sessions {
		sessions[i] = newSession(sv, i, seed)
	}
	ctx, cancel := context.WithTimeout(context.Background(), setUpLimit)
	defer cancel()
	if err := sessions[0].put(ctx, 0); err != nil {
		sv.close()
		return nil, nil, fmt.Errorf("first op: %w", err)
	}
	if spec.Churn {
		if failed, _ := preload(ctx, sv, seed, false); failed > 0 {
			sv.close()
			return nil, nil, fmt.Errorf("preload: %d puts failed", failed)
		}
	}
	return sv, sessions, nil
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// runWorkload runs one workload once, in this process.
func runWorkload(spec workloadSpec, seed int64, seconds int, traced bool) (*runResult, *tracer, error) {
	var tr *tracer
	if traced {
		tr = newTracer(processStart)
	}
	enterPhase("set-up", setUpLimit)
	sv, sessions, err := setUp(spec, members, seed, tr)
	if err != nil {
		return nil, nil, err
	}
	defer sv.close()
	setups := []float64{time.Since(processStart).Seconds()}

	enterPhase("warm-up", warmup)
	warmStart := time.Now()
	ph := phases{origin: processStart, start: warmStart.Add(warmup)}
	ph.end = ph.start.Add(time.Duration(seconds) * time.Second)

	var (
		wg     sync.WaitGroup
		events []reconfigEvent
	)
	if spec.Churn {
		ctl := sv.dir.Session("bench-ctl", client.Options{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			events = churn(sv, ctl, warmStart, ph)
		}()
	}
	for _, s := range sessions {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			s.run(spec, ph, tr)
		}(s)
	}
	sleepUntil(ph.start)
	enterPhase("measured window", time.Duration(seconds)*time.Second)
	c0, steal0 := sv.counters(sessions), readCPUSteal()
	sleepUntil(ph.end)
	c1, steal1 := sv.counters(sessions), readCPUSteal()
	enterPhase("drain", drainAfter)
	wg.Wait()

	enterPhase("read-back", readBackLimit)
	ctx, cancel := context.WithTimeout(context.Background(), readBackLimit)
	lost, rbFailed := readBackAll(ctx, sessions)
	rbReads := int64(len(sessions) * keysPerSession)
	var preFail, preBad int64
	if spec.Churn {
		preFail, preBad = preload(ctx, sv, seed, true)
		rbReads += preloadKeys
	}
	cancel()
	violations := sv.nodeTotals().violations
	rss := rssPeakMB() // before the repeated set-ups, which are not the workload's memory
	enterPhase("tear-down", tearDownLimit)
	sv.close()

	if !traced {
		// Start the repeats from an empty heap, as the run's own set-up did:
		// the churn workload leaves gigabytes of garbage behind, and a preload
		// that shares the process with its collection takes three times as long.
		debug.FreeOSMemory()
		repeatsStart := time.Now()
		for i := 1; i < setUpsMost && (i < setUpsLeast || time.Since(repeatsStart) < setUpsBudget); i++ {
			enterPhase("repeated set-up", setUpLimit+tearDownLimit)
			t := time.Now()
			sv2, _, err := setUp(spec, members, seed, nil)
			if err != nil {
				return nil, nil, fmt.Errorf("set-up repeat %d: %w", i, err)
			}
			setups = append(setups, time.Since(t).Seconds())
			sv2.close()
		}
	}

	res := &runResult{
		Workload: spec.Name, Seed: seed, Seconds: seconds, Traced: traced,
		EndToEnd: map[string]metric{}, Diag: map[string]metric{},
	}
	w := window{spec: spec, seconds: float64(seconds), ph: ph, sessions: sessions, events: events, c0: c0, c1: c1}
	w.merge()
	for _, s := range sessions {
		res.Attempted += s.attempted
		res.Failed += s.failed
	}
	wrong := preBad
	for _, s := range sessions {
		wrong += s.wrong // stale reads of any phase, and the read-back's lost writes
	}
	res.Attempted += rbReads + int64(len(w.inWindow)) + w.reconfigErrs
	res.Failed += rbFailed + preFail + w.reconfigErrs
	res.Correct = wrong == 0 && violations == 0

	w.endToEnd(res, setups, wrong, violations, rss)
	w.diagnostics(res, lost+preBad, setups)
	res.Diag["host_steal_frac"] = metric{Value: steal1.fracSince(steal0), Unit: "frac"}
	if traced {
		res.PerLayer = map[string]metric{}
		w.perLayer(res)
	}
	res.WallS = time.Since(processStart).Seconds()
	return res, tr, nil
}

// window holds what a run recorded, and turns it into metrics.
type window struct {
	spec     workloadSpec
	seconds  float64
	ph       phases
	sessions []*session
	events   []reconfigEvent
	c0, c1   counters

	acks         []int64 // ack times of the ops acknowledged inside the window (ns since origin), ascending
	lat          []int64 // their latencies, ascending
	reads        int64
	inWindow     []reconfigEvent // successful changes called inside the window
	reconfigErrs int64
}

func (w *window) merge() {
	for _, s := range w.sessions {
		for _, op := range s.ops {
			w.acks = append(w.acks, op.ack)
			w.lat = append(w.lat, op.lat)
		}
		w.reads += s.reads
	}
	slices.Sort(w.acks)
	slices.Sort(w.lat)
	for _, ev := range w.events {
		if ev.call.Before(w.ph.start) || !ev.call.Before(w.ph.end) {
			continue
		}
		if ev.err != nil {
			w.reconfigErrs++
			continue
		}
		w.inWindow = append(w.inWindow, ev)
	}
}

func (w *window) ns(t time.Time) int64 { return t.Sub(w.ph.origin).Nanoseconds() }

func us(ns int64) float64 { return float64(ns) / 1e3 }
func ms(ns int64) float64 { return float64(ns) / 1e6 }

func (w *window) endToEnd(res *runResult, setups []float64, wrong, violations int64, rss float64) {
	ops := len(w.lat)
	e := res.EndToEnd
	e["setup_s"] = metric{Value: medianF(setups), Unit: "s", Samples: len(setups)}
	e["ops_per_s"] = metric{Value: float64(ops) / w.seconds, Unit: "1/s", Samples: ops}
	e["lat_p50_us"] = metric{Value: us(percentile(w.lat, 50)), Unit: "us", Samples: ops}
	e["lat_p99_us"] = metric{Value: us(percentile(w.lat, 99)), Unit: "us", Samples: ops}
	e["failed_frac"] = metric{Value: ratio(float64(res.Failed), float64(res.Attempted)), Unit: "frac", Samples: int(res.Attempted)}
	e["wrong_results"] = metric{Value: float64(wrong), Unit: "count"}
	e["invariant_violations"] = metric{Value: float64(violations), Unit: "count"}
	e["rss_peak_mb"] = metric{Value: rss, Unit: "MB"}
	if w.spec.Churn {
		n := len(w.inWindow)
		sumOver, _ := ackGaps(w.acks, w.ns(w.ph.start), w.ns(w.ph.end), gapThreshold.Nanoseconds())
		e["unavail_ms_per_reconfig"] = metric{Value: ratio(ms(sumOver), float64(n)), Unit: "ms", Samples: n}
		join := make([]int64, 0, n)
		for _, ev := range w.inWindow {
			join = append(join, ev.joined.Sub(ev.call).Nanoseconds())
		}
		slices.Sort(join)
		e["join_ms_p50"] = metric{Value: ms(percentile(join, 50)), Unit: "ms", Samples: n}
	}
}

func (w *window) diagnostics(res *runResult, lost int64, setups []float64) {
	d := res.Diag
	ops := len(w.lat)
	d["lat_p99.9_us"] = metric{Value: us(percentile(w.lat, 99.9)), Unit: "us", Samples: ops}
	if p, ok := highestSupported(ops); ok {
		d["lat_top_us"] = metric{Value: us(percentile(w.lat, p)), Unit: "us", Samples: ops}
		d["lat_top_percentile"] = metric{Value: p, Unit: "%"}
	}
	if ops > 0 {
		d["lat_max_us"] = metric{Value: us(w.lat[ops-1]), Unit: "us", Samples: ops}
	}
	_, longest := ackGaps(w.acks, w.ns(w.ph.start), w.ns(w.ph.end), gapThreshold.Nanoseconds())
	d["ack_gap_max_ms"] = metric{Value: ms(longest), Unit: "ms"}
	d["lost_acked_writes"] = metric{Value: float64(lost), Unit: "count"}
	d["reconfigs"] = metric{Value: float64(len(w.inWindow)), Unit: "count"}
	if w.spec.Churn {
		// The typical interval between two membership changes, beside the
		// whole-window ops_per_s that one long stall can decide: the two apart
		// say "a rare change stood still", both down say "every change got slower".
		cuts := make([]int64, 0, len(w.inWindow))
		for _, ev := range w.inWindow {
			cuts = append(cuts, w.ns(ev.call))
		}
		rate, n := medianIntervalRate(w.acks, cuts)
		d["ops_per_s_median_interval"] = metric{Value: rate, Unit: "1/s", Samples: n}
	}
	d["setup_first_s"] = metric{Value: setups[0], Unit: "s"}
	d["setup_max_s"] = metric{Value: slices.Max(setups), Unit: "s", Samples: len(setups)}
}

// perLayer fills the in-situ per-layer metrics from the counter deltas of the
// window, the store decorators and the ack timeline.
func (w *window) perLayer(res *runResult) {
	p := res.PerLayer
	ops := float64(len(w.lat))
	kops := ops / 1000
	nrec := float64(len(w.inWindow))
	a, b := w.c0, w.c1
	put := func(name string, v float64, unit string) { p[name] = metric{Value: v, Unit: unit} }

	// storage: the decorators' view, all stores together.
	var syncs, writes, deletes, bytes, busy int64
	var syncNS []int64
	var busyMax float64
	for i := range b.stores {
		s0, s1 := a.stores[i], b.stores[i]
		syncs += s1.syncs - s0.syncs
		writes += s1.writes - s0.writes
		deletes += s1.deletes - s0.deletes
		bytes += s1.bytes - s0.bytes
		busy += s1.busyNS - s0.busyNS
		syncNS = append(syncNS, s1.syncNS[len(s0.syncNS):]...)
		// Whole one-second buckets inside the window only: the first bucket
		// the window-start snapshot did not yet hold, up to the last complete one.
		for sec := len(s0.busyByS); sec < len(s1.busyByS)-1; sec++ {
			busyMax = max(busyMax, float64(s1.busyByS[sec])/1e9)
		}
	}
	slices.Sort(syncNS)
	put("storage.syncs_per_op", ratio(float64(syncs), ops), "count")
	put("storage.writes_per_op", ratio(float64(writes), ops), "count")
	put("storage.deletes_per_op", ratio(float64(deletes), ops), "count")
	put("storage.bytes_per_op", ratio(float64(bytes), ops), "B")
	put("storage.sync_us_p50", us(percentile(syncNS, 50)), "us")
	put("storage.sync_us_p99", us(percentile(syncNS, 99)), "us")
	put("storage.busy_frac", ratio(float64(busy)/1e9, w.seconds*float64(len(b.stores))), "frac")
	put("storage.busy_frac_max_1s", busyMax, "frac")

	// transport: Network.Stats deltas.
	dropped := (b.net.DroppedBusy - a.net.DroppedBusy) + (b.net.DroppedDown - a.net.DroppedDown) +
		(b.net.DroppedLoss - a.net.DroppedLoss) + (b.net.DroppedCut - a.net.DroppedCut)
	put("transport.msgs_per_op", ratio(float64(b.net.MessagesSent-a.net.MessagesSent), ops), "count")
	put("transport.bytes_per_op", ratio(float64(b.net.BytesSent-a.net.BytesSent), ops), "B")
	put("transport.dropped_per_kop", ratio(float64(dropped), kops), "count")
	put("transport.bytes_per_reconfig", ratio(float64(rpcBytes(b.net)-rpcBytes(a.net)), nrec), "B")

	// paxos, through NodeStats.
	put("paxos.group_commits_per_op", ratio(float64(b.nodes.groupCommits-a.nodes.groupCommits), ops), "count")
	put("paxos.dropped_inbound", float64(b.nodes.droppedInbound-a.nodes.droppedInbound), "count")

	// reconfig: NodeStats, and the controller's view of each change.
	reads := float64(w.reads)
	attempts := float64(b.client.Attempts - a.client.Attempts)
	put("reconfig.fast_read_frac", ratio(float64(b.nodes.fastReads-a.nodes.fastReads), reads), "frac")
	put("reconfig.read_fallback_frac", ratio(float64(b.nodes.readFallbacks-a.nodes.readFallbacks), reads), "frac")
	put("reconfig.read_fenced_per_reconfig", ratio(float64(b.nodes.readFenced-a.nodes.readFenced), nrec), "count")
	put("reconfig.apply_queue_high", float64(b.nodes.applyQueueHigh), "count")
	put("reconfig.apply_stalls", float64(b.nodes.applyStalls-a.nodes.applyStalls), "count")
	put("reconfig.submit_queue_high", float64(b.nodes.submitQueueHigh), "count")
	put("reconfig.shed_frac", ratio(float64(b.nodes.shed-a.nodes.shed), attempts), "frac")
	put("reconfig.duplicates_per_kop", ratio(float64(b.nodes.duplicates-a.nodes.duplicates), kops), "count")
	put("reconfig.resubmits_per_reconfig", ratio(float64(b.nodes.resubmits-a.nodes.resubmits), nrec), "count")
	put("reconfig.spec_decides_per_reconfig", ratio(float64(b.nodes.specDecides-a.nodes.specDecides), nrec), "count")
	put("reconfig.chunks_per_reconfig", ratio(float64(b.nodes.chunksFetched-a.nodes.chunksFetched), nrec), "count")
	put("reconfig.chunk_retries_per_reconfig", ratio(float64(b.nodes.chunkRetries-a.nodes.chunkRetries), nrec), "count")
	put("reconfig.checkpoints_published", float64(b.nodes.checkpoints-a.nodes.checkpoints), "count")
	put("reconfig.truncated_slots", float64(b.nodes.truncated-a.nodes.truncated), "count")
	var callNS, gapNS []int64
	for _, ev := range w.inWindow {
		callNS = append(callNS, ev.done.Sub(ev.call).Nanoseconds())
		from := w.ns(ev.call)
		gapNS = append(gapNS, gapWithin(w.acks, from, from+churnEvery.Nanoseconds()))
	}
	slices.Sort(callNS)
	slices.Sort(gapNS)
	put("reconfig.reconfigure_ms_p50", ms(percentile(callNS, 50)), "ms")
	put("reconfig.gap_ms_p50", ms(percentile(gapNS, 50)), "ms")
	put("reconfig.gap_ms_p90", ms(percentile(gapNS, 90)), "ms")
	// The two availability figures of the paper's scenario. They are 0 on the
	// workloads that never reconfigure, so they cannot carry a regression
	// bound there and are reported with the layer that sets them.
	put("reconfig.unavail_ms_per_reconfig", res.EndToEnd["unavail_ms_per_reconfig"].Value, "ms")
	put("reconfig.join_ms_p50", res.EndToEnd["join_ms_p50"].Value, "ms")

	// client: Stats and DirectoryStats.
	put("client.attempts_per_op", ratio(attempts, ops), "count")
	put("client.redirects_per_op", ratio(float64(b.client.Redirects-a.client.Redirects), ops), "count")
	put("client.busy_per_kop", ratio(float64(b.client.Busy-a.client.Busy), kops), "count")
	put("client.adopts_per_reconfig", ratio(float64(b.adopts-a.adopts), nrec), "count")
	put("client.ack_gap_max_ms", res.Diag["ack_gap_max_ms"].Value, "ms")

	put("trace.ops_per_s", ops/w.seconds, "1/s")
}

// rpcBytes is the traffic of the rpc layer: client submits and replies, and
// everything the control plane moves, state transfer included.
func rpcBytes(s transport.Stats) int64 {
	return s.PerKind[rpc.KindRequest].Bytes + s.PerKind[rpc.KindResponse].Bytes
}

// cpuSteal is the aggregate cpu line of /proc/stat: the jiffies the hypervisor
// ran something else while this VM wanted the processor, and all jiffies.
type cpuSteal struct{ steal, total float64 }

// readCPUSteal returns zeros where /proc/stat has no steal column.
func readCPUSteal() cpuSteal {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuSteal{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	var c cpuSteal
	for i, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if i == 0 || i > 8 || err != nil {
			continue
		}
		c.total += v
		if i == 8 {
			c.steal = v
		}
	}
	return c
}

// fracSince is the share of the VM's processor time since an earlier reading
// that the host took away: the first thing to look at when a run is slow.
func (c cpuSteal) fracSince(earlier cpuSteal) float64 {
	return ratio(c.steal-earlier.steal, c.total-earlier.total)
}

// rssPeakMB is the process's peak resident set (VmHWM), 0 where /proc has none.
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// sortedNames returns the keys of a metric map in order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
