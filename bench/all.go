package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// tracedSeconds is the window of the traced pass when running everything.
const tracedSeconds = 8

// series is one metric over the runs of a result file.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// workloadResults is what a result file keeps of one workload.
type workloadResults struct {
	Why           string             `json:"why"`
	EndToEnd      map[string]*series `json:"end_to_end"` // one value per untraced run
	PerLayer      map[string]metric  `json:"per_layer"`  // from the traced pass
	OverheadFrac  float64            `json:"trace_overhead_frac"`
	Diagnostics   map[string]metric  `json:"diagnostics"` // of the last untraced run
	TracedSeconds int                `json:"traced_seconds"`
}

// resultFile is out/results.json: the input of -compare.
type resultFile struct {
	Env       envInfo                     `json:"env"`
	Seed      int64                       `json:"seed"`
	Seconds   int                         `json:"seconds"`
	Runs      int                         `json:"runs"`
	Workloads map[string]*workloadResults `json:"workloads"`
	Probes    map[string]metric           `json:"probes"`
	WallS     float64                     `json:"wall_s"`
}

// child runs one workload (or the probes) in a fresh process of this same
// binary and returns what it wrote. Back-to-back deployments in one process
// drift (heap, scheduler state), so every measurement gets its own.
func child(name string, seed int64, seconds int, traced bool) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", t)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	path := runFile(name, traced)
	_ = os.Remove(path) // a stale file must not pass for this run's
	// The child has its own watchdog.
	err = cmd.Run()
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return nil, fmt.Errorf("%s: no result written: %w", name, rerr)
	}
	var res runResult
	if jerr := json.Unmarshal(data, &res); jerr != nil {
		return nil, fmt.Errorf("%s: %w", path, jerr)
	}
	// A non-zero exit with a result is a gate failure: report it with the rest.
	return &res, nil
}

// runAll is the default mode: every workload untraced (runs times), then the
// traced pass, then the layer probes, each in a fresh child process.
func runAll(seed int64, seconds, runs int) int {
	start := time.Now()
	env := currentEnv()
	fmt.Printf("bench: %s seed=%d window=%ds runs=%d\n", env, seed, seconds, runs)
	out := &resultFile{Env: env, Seed: seed, Seconds: seconds, Runs: runs, Workloads: map[string]*workloadResults{}}
	var failures []string

	for _, spec := range workloads {
		wr := &workloadResults{Why: spec.Why, EndToEnd: map[string]*series{}, TracedSeconds: tracedSeconds}
		out.Workloads[spec.Name] = wr
		for i := 0; i < runs; i++ {
			res, err := child(spec.Name, seed, seconds, false)
			if err != nil {
				fail(1, "%v", err)
			}
			for name, m := range res.EndToEnd {
				s := wr.EndToEnd[name]
				if s == nil {
					s = &series{Unit: m.Unit}
					wr.EndToEnd[name] = s
				}
				s.Values = append(s.Values, m.Value)
			}
			wr.Diagnostics = res.Diag
			failures = append(failures, gateFailures(res)...)
		}
	}
	for _, spec := range workloads {
		res, err := child(spec.Name, seed, tracedSeconds, true)
		if err != nil {
			fail(1, "%v", err)
		}
		wr := out.Workloads[spec.Name]
		wr.PerLayer = res.PerLayer
		untraced := medianF(wr.EndToEnd["ops_per_s"].Values)
		wr.OverheadFrac = 1 - ratio(res.PerLayer["trace.ops_per_s"].Value, untraced)
		failures = append(failures, gateFailures(res)...)
	}
	probes, err := child(probesName, seed, seconds, true)
	if err != nil {
		fail(1, "%v", err)
	}
	out.Probes = probes.PerLayer
	out.WallS = time.Since(start).Seconds()

	printSummary(out)
	path := filepath.Join(outDir, "results.json")
	if err := writeJSON(path, out); err != nil {
		fail(1, "%v", err)
	}
	fmt.Printf("bench: results in %s, traces in %s/trace-<workload>.jsonl, total wall time %.0f s\n", path, outDir, out.WallS)
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "bench: gate: %s\n", f)
	}
	if len(failures) > 0 {
		return 1
	}
	return 0
}

func printSummary(out *resultFile) {
	fmt.Printf("\n== summary: medians of %d untraced run(s), %d s window ==\n", out.Runs, out.Seconds)
	fmt.Printf("%-26s", "end-to-end metric")
	for _, spec := range workloads {
		fmt.Printf(" %16s", spec.Name)
	}
	fmt.Println("  unit   rule")
	for _, d := range endToEndDefs {
		fmt.Printf("%-26s", d.Name)
		for _, spec := range workloads {
			s := out.Workloads[spec.Name].EndToEnd[d.Name]
			if s == nil {
				fmt.Printf(" %16s", "-")
				continue
			}
			fmt.Printf(" %16.4f", medianF(s.Values))
		}
		fmt.Printf("  %-6s %s\n", d.Unit, d.describe())
	}
	fmt.Printf("\n== per-layer, traced pass of %d s (tracing costs trace.overhead_frac of ops_per_s) ==\n", tracedSeconds)
	fmt.Printf("%-38s", "per-layer metric")
	for _, spec := range workloads {
		fmt.Printf(" %16s", spec.Name)
	}
	fmt.Println("  unit")
	first := out.Workloads[workloads[0].Name].PerLayer
	for _, name := range sortedNames(first) {
		fmt.Printf("%-38s", name)
		for _, spec := range workloads {
			fmt.Printf(" %16.4f", out.Workloads[spec.Name].PerLayer[name].Value)
		}
		fmt.Printf("  %s\n", first[name].Unit)
	}
	fmt.Printf("%-38s", "trace.overhead_frac")
	for _, spec := range workloads {
		fmt.Printf(" %16.4f", out.Workloads[spec.Name].OverheadFrac)
	}
	fmt.Println("  frac")
	fmt.Println("\n== isolated layer probes ==")
	for _, name := range sortedNames(out.Probes) {
		m := out.Probes[name]
		fmt.Printf("%-38s %16.4f  %-6s n=%d\n", name, m.Value, m.Unit, m.Samples)
	}
	fmt.Println()
}
