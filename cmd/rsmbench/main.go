// Command rsmbench is the one front-end to the simulated-fabric experiments
// EXPERIMENTS.md still regenerates (DESIGN.md §4): it runs them by ID and
// prints their tables. `rsmbench -h` lists the IDs.
//
//	rsmbench -exp reconfig      # one experiment
//	rsmbench -exp all -dur 3s   # every measurement, 3s of load per run
//	rsmbench -exp lin -seed 7   # linearizability chaos check from a seed
//
// The experiments retired with their code are under EXPERIMENTS.md,
// "Historical tables" and "Retired arms".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/harness"
)

// params is what the flags give every experiment.
type params struct {
	out     io.Writer
	tun     harness.Tuning
	dur     time.Duration
	clients int
	seed    int64
	rate    float64
}

// show prints a finished experiment's report, or passes its error on.
func (p params) show(res interface{ Render() string }, err error) error {
	if err == nil {
		fmt.Fprint(p.out, res.Render())
	}
	return err
}

// verdict is show for a linearizability check: an unproven history is an error.
func (p params) verdict(res interface{ Render() string }, err error, linearizable bool) error {
	if err = p.show(res, err); err == nil && !linearizable {
		err = fmt.Errorf("linearizability check did not pass (seed %d)", p.seed)
	}
	return err
}

// experiments is the only list of experiment IDs: the usage text, the `all`
// expansion, the argument check and the dispatch all read it.
var experiments = []struct {
	names []string // the ID, then older names for the same run
	doc   string
	check bool // a pass/fail correctness check, not a measurement: not in `all`
	run   func(params) error
}{
	{names: []string{"disruption", "t2"},
		doc: "T2: member swap under load at state size 16KB..8MB, median of 3",
		run: func(p params) error {
			return p.show(harness.RunDisruptionSweep(p.tun, []int{16 << 10, 256 << 10, 1 << 20, 8 << 20}, p.dur, p.clients))
		}},
	{names: []string{"reconfig"},
		doc: "R2: speculative vs wait-for-transfer successor start, full replacement at 8MB",
		run: func(p params) error {
			// 8MB is the size where the transfer truly gates the successor
			// and time-to-first-decide separates the two starts.
			return p.show(harness.RunR2ReconfigShootout(p.tun, 8<<20, p.dur, p.clients))
		}},
	{names: []string{"catchup"},
		doc: "K1: a member lagging 50k slots at 8MB heals by checkpoint fetch vs NoCheckpoints full replay",
		run: func(p params) error {
			// More clients than the default so driving the 50k-slot lag
			// doesn't dominate wall-clock time.
			return p.show(harness.RunK1Catchup(p.tun, 8<<20, 50000, max(p.clients, 32)))
		}},
	{names: []string{"mega"},
		doc: "C1: 100k open-loop sessions (-clients if >= 1000) at -rate ops/s through a reconfiguration storm, min 10s",
		run: func(p params) error {
			// The real client library (shared directory + admission control)
			// at the storm-capacity edge, where shedding is what keeps every
			// op accounted.
			sessions := 100000
			if p.clients >= 1000 {
				sessions = p.clients
			}
			p.tun.Node.SubmitQueue = 256
			res, err := harness.RunC1Megaload(p.tun, sessions, p.rate, max(p.dur, 10*time.Second))
			if err == nil && res.Smart.Silent != 0 {
				err = fmt.Errorf("%d silent drops", res.Smart.Silent)
			}
			return p.show(res, err)
		}},
	{names: []string{"lin"}, check: true,
		doc: "check: linearizability under a seeded nemesis schedule (-seed)",
		run: func(p params) error {
			res, err := harness.RunLin(p.tun, p.seed, p.dur, p.clients)
			return p.verdict(res, err, !res.Unknown && res.Linearizable)
		}},
	{names: []string{"megalin"}, check: true,
		doc: "check: linearizability of a 10k-session megaload through churn (-seed)",
		run: func(p params) error {
			res, err := harness.RunMegaLin(p.tun, p.seed, 10000, 2000, p.dur)
			return p.verdict(res, err, !res.Unknown && res.Linearizable)
		}},
}

// selectExperiments resolves a comma-separated -exp value to table indexes,
// each at most once, in the order named. `all` is every measurement.
func selectExperiments(spec string) ([]int, error) {
	var picked []int
	for _, name := range strings.Split(strings.ToLower(spec), ",") {
		found := false
		for i, e := range experiments {
			if slices.Contains(e.names, name) || (name == "all" && !e.check) {
				found = true
				if !slices.Contains(picked, i) {
					picked = append(picked, i)
				}
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
	}
	return picked, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rsmbench", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "all", "comma-separated experiment IDs, or all (every one that is not a check)")
		dur     = fs.Duration("dur", 2*time.Second, "load duration per run")
		clients = fs.Int("clients", 4, "closed-loop client count")
		seed    = fs.Int64("seed", 1, "nemesis schedule seed (lin, megalin)")
		rate    = fs.Float64("rate", 6000, "offered open-loop load, ops/s (mega)")
		cpuProf = fs.String("pprof", "", "write a CPU profile covering the selected experiments to this file")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: rsmbench [flags]\n\nexperiments:")
		for _, e := range experiments {
			fmt.Fprintf(stderr, "  %-18s %s\n", strings.Join(e.names, ","), e.doc)
		}
		fmt.Fprintln(stderr, "\nflags:")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2 and -h exits 0 in there
	if fs.NArg() > 0 {
		// A stray positional arg (e.g. `rsmbench mega` instead of
		// `rsmbench -exp mega`) would otherwise silently run the full suite.
		fmt.Fprintf(stderr, "unexpected argument %q (use -exp %s)\n", fs.Arg(0), fs.Arg(0))
		return 2
	}
	picked, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintln(stderr, err)
		fs.Usage()
		return 2
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(stderr, "pprof: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}()
	}

	p := params{out: stdout, tun: harness.DefaultTuning(), dur: *dur, clients: *clients, seed: *seed, rate: *rate}
	for _, i := range picked {
		e := experiments[i]
		fmt.Fprintf(stdout, "=== experiment %s ===\n", strings.ToUpper(e.names[0]))
		if err := e.run(p); err != nil {
			fmt.Fprintf(stderr, "experiment %s: %v\n", e.names[0], err)
			return 1
		}
		fmt.Fprintln(stdout)
	}
	return 0
}
