// Command bench is the repository's benchmark: four closed-loop workloads
// against a three-member KV service built from reconfig.NewNode on the
// loopback-TCP fabric with no injected delay, end-to-end metrics taken with
// tracing off, and per-layer metrics taken from outside each layer on a
// separate traced pass. See README.md for every name it prints.
//
//	go run -C bench .                              every workload, traced pass, layer probes
//	go run -C bench . -workload steady-write       one workload, as the benchmark driver runs it
//	go run -C bench . -workload probes             the isolated layer probes alone
//	go run -C bench . -compare a.json b.json       two result files, row by row
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"sync"
	"syscall"
	"time"
)

// defaultSeed is the fixed seed of a run that names none (PODC 2012 opened on
// 2012-07-16).
const defaultSeed = 20120716

// e2eDef declares one end-to-end metric: its unit, which way is better and by
// what share of the parent's median it may worsen.
type e2eDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // 0 with Limit set: an absolute limit instead
	// Limit is the largest value allowed for the metrics that have no
	// baseline to compare with: failed_frac, and the two that must be 0.
	Limit    float64
	HasLimit bool
}

// endToEndDefs is the one place the end-to-end metrics are declared; the
// report, the gate and -compare all read it. Bounds are 10% (15% for the two
// that spread more on a quiet host); setup_s has the 25% the benchmark driver
// asks for set-up time, the largest it allows.
var endToEndDefs = []e2eDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
	{Name: "lat_p99_us", Unit: "us", Better: "lower", Bound: 0.10},
	{Name: "failed_frac", Unit: "frac", Better: "lower", Limit: 0.01, HasLimit: true},
	{Name: "wrong_results", Unit: "count", Better: "lower", Limit: 0, HasLimit: true},
	{Name: "invariant_violations", Unit: "count", Better: "lower", Limit: 0, HasLimit: true},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "unavail_ms_per_reconfig", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "join_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10},
}

// driverEndToEnd are the end-to-end metrics BENCHMARK.json lists, the ones the
// benchmark driver gates. Its bounds are shares of the parent's median and a
// ten-run spread wider than a bound refuses the benchmark, so a metric listed
// there must exist on every workload, never be 0, and repeat to within its
// bound on the shared 2-vCPU runner, whose speed drifts by a third over
// minutes. Only setup_s, which the driver requires and whose spread it does
// not hold against the bound, is left: ops_per_s and the latency percentiles
// spread by 11-32% (see README), rss_peak_mb by 14% on durable-write, whose log
// grows with the ops done. They keep their bounds under -compare, which says
// "unresolved" when the runs of a side lie further apart than that, and are
// for alternating runs of parent and change to judge.
var driverEndToEnd = []string{"setup_s"}

// defOf finds the declaration of an end-to-end metric.
func defOf(name string) (e2eDef, bool) {
	for _, d := range endToEndDefs {
		if d.Name == name {
			return d, true
		}
	}
	return e2eDef{}, false
}

func (d e2eDef) describe() string {
	if d.HasLimit {
		return fmt.Sprintf("must be <= %g", d.Limit)
	}
	rule := fmt.Sprintf("bound %.0f%%, %s is better", d.Bound*100, d.Better)
	if slices.Contains(driverEndToEnd, d.Name) {
		rule += ", gated by the driver"
	}
	return rule
}

// gateFailures names every way a result misses the absolute limits.
func gateFailures(r *runResult) []string {
	var out []string
	for _, d := range endToEndDefs {
		m, ok := r.EndToEnd[d.Name]
		if ok && d.HasLimit && m.Value > d.Limit {
			out = append(out, fmt.Sprintf("%s: %s = %g, limit %g", r.Workload, d.Name, m.Value, d.Limit))
		}
	}
	return out
}

// contractLine is the last line a single-workload run prints.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runResult) contract() contractLine {
	c := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]contractMetric{}}
	if r.Traced {
		for name, m := range r.PerLayer {
			c.Metrics[name] = contractMetric{Value: m.Value, Unit: m.Unit}
		}
		return c
	}
	for _, name := range driverEndToEnd {
		m := r.EndToEnd[name]
		c.Metrics[name] = contractMetric{Value: m.Value, Unit: m.Unit}
	}
	return c
}

func printMetrics(title string, m map[string]metric, note func(name string) string) {
	fmt.Printf("  %s\n", title)
	for _, name := range sortedNames(m) {
		v := m[name]
		line := fmt.Sprintf("    %-38s %14.4f %-6s", name, v.Value, v.Unit)
		if v.Samples > 0 {
			line += fmt.Sprintf(" n=%-8d", v.Samples)
		}
		if note != nil {
			line += " " + note(name)
		}
		fmt.Println(line)
	}
}

func (r *runResult) print() {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	if r.Workload == probesName {
		fmt.Printf("== %s: isolated layer probes, one caller, %s each ==\n", r.Workload, probeFor)
	} else {
		fmt.Printf("== %s: seed %d, %d s window, %s, closed loop ==\n", r.Workload, r.Seed, r.Seconds, mode)
	}
	fmt.Printf("  correct=%v attempted=%d failed=%d wall=%.1fs\n", r.Correct, r.Attempted, r.Failed, r.WallS)
	printMetrics("end-to-end", r.EndToEnd, func(name string) string {
		d, _ := defOf(name)
		return d.describe()
	})
	printMetrics("diagnostics (not gated)", r.Diag, nil)
	if r.Traced {
		printMetrics("per-layer, measured from outside each layer", r.PerLayer, nil)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func runFile(workload string, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("run-%s-trace%d.json", workload, t))
}

// fail leaves through the one exit path that skips deferred calls, so it
// removes the WAL directories itself.
func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	removeAllTempDirs()
	os.Exit(code)
}

// The watchdog: every phase of a run has a time limit, and a run still in a
// phase when its limit passes fails with the workload and the phase named and
// the goroutines dumped, instead of hanging whoever started it.
var watchdog struct {
	mu    sync.Mutex
	run   string
	timer *time.Timer
}

// enterPhase ends the previous phase of the run and gives the next one limit
// (plus phaseSlack for a slow host) to end too.
func enterPhase(phase string, limit time.Duration) {
	limit += phaseSlack
	leavePhase()
	watchdog.mu.Lock()
	defer watchdog.mu.Unlock()
	run := watchdog.run
	watchdog.timer = time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "bench: watchdog: %s still in phase %q after %s; goroutines follow\n", run, phase, limit)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		fail(3, "watchdog: %s did not finish phase %q", run, phase)
	})
}

// leavePhase ends the current phase without entering another.
func leavePhase() {
	watchdog.mu.Lock()
	defer watchdog.mu.Unlock()
	if watchdog.timer != nil {
		watchdog.timer.Stop()
	}
}

// runOne is the mode the benchmark driver uses: one workload (or the layer
// probes), in this process, the contract line last.
func runOne(name string, seed int64, seconds int, traced bool) int {
	watchdog.run = "workload " + name // before the first phase: no timer reads it yet
	var (
		res *runResult
		tr  *tracer
		err error
	)
	if name == probesName {
		res, tr, err = probeRun(seed)
	} else {
		spec, ok := findWorkload(name)
		if !ok {
			fail(2, "unknown workload %q", name)
		}
		res, tr, err = runWorkload(spec, seed, seconds, traced)
	}
	if err != nil {
		fail(1, "workload %s: %v", name, err)
	}
	enterPhase("report", reportLimit)
	res.WallS = time.Since(processStart).Seconds()
	// The environment is worked out only now: asking git for the commit takes
	// as long as a set-up, which is timed from process start.
	res.Env = currentEnv()
	fmt.Printf("bench: %s\n", res.Env)
	res.print()
	if err := writeJSON(runFile(name, res.Traced), res); err != nil {
		fail(1, "%v", err)
	}
	if err := tr.writeFile(filepath.Join(outDir, "trace-"+name+".jsonl"), name, res.Env); err != nil {
		fail(1, "%v", err)
	}
	code := 0
	for _, f := range gateFailures(res) {
		fmt.Fprintf(os.Stderr, "bench: gate: %s\n", f)
		code = 1
	}
	line, err := json.Marshal(res.contract())
	if err != nil {
		fail(1, "%v", err)
	}
	fmt.Println(string(line))
	leavePhase()
	return code
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload, or \"probes\", in this process and print the result line last (default: all of them, each in a fresh child process)")
		seed     = flag.Int64("seed", defaultSeed, "seed of the key and op-mix generators")
		seconds  = flag.Int("seconds", 30, "length of the measured window")
		trace    = flag.Int("trace", 0, "with -workload: 1 takes the per-layer metrics (store decorator, counters, sampled spans) instead of the end-to-end ones")
		runs     = flag.Int("runs", 1, "untraced runs per workload when running them all; -compare judges the spread between them")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fail(130, "stopped by %s", s)
	}()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fail(2, "-compare takes two result files")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *seconds < 1:
		fail(2, "-seconds must be at least 1")
	case *workload == "":
		os.Exit(runAll(*seed, *seconds, *runs))
	default:
		os.Exit(runOne(*workload, *seed, *seconds, *trace != 0))
	}
}
