package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Verdicts of one compared row.
const (
	verdictWithin     = "within bound"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved" // the runs of one side differ by more than the bound
	verdictOK         = "ok"
	verdictViolated   = "violated"
)

// spread is how far the runs of one side lie apart, as a share of their
// median: the distance between the quartiles from four runs on, the full range
// below that (three runs have no quartiles worth the name).
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quartiles(s)
	}
	return ratio(hi-lo, medianF(s))
}

// quartiles returns the first and third quartile of ascending values by the
// method of Python's statistics.quantiles(values, n=4) (exclusive).
func quartiles(sorted []float64) (q1, q3 float64) {
	at := func(pos float64) float64 { // pos is 1-based
		n := len(sorted)
		j := int(pos)
		if j < 1 {
			return sorted[0]
		}
		if j >= n {
			return sorted[n-1]
		}
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	n := float64(len(sorted))
	return at((n + 1) / 4), at(3 * (n + 1) / 4)
}

// judge compares the runs of a base side and a new side for one metric.
func judge(d e2eDef, base, next []float64) (ratioToBase float64, verdict string) {
	a, b := medianF(base), medianF(next)
	if d.HasLimit {
		verdict = verdictOK
		for _, v := range append(append([]float64(nil), base...), next...) {
			if v > d.Limit {
				verdict = verdictViolated
			}
		}
		return ratio(b, a), verdict
	}
	worse := ratio(b-a, a) // share of the base median by which the new side is worse
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case spread(base) > d.Bound || spread(next) > d.Bound:
		verdict = verdictUnresolved
	case worse > d.Bound:
		verdict = verdictRegression
	default:
		verdict = verdictWithin
	}
	return ratio(b, a), verdict
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareFiles prints one row per workload and end-to-end metric. It exits 1
// when any row is a regression or a violated limit.
func compareFiles(basePath, nextPath string) int {
	base, err := readResultFile(basePath)
	if err != nil {
		fail(2, "%v", err)
	}
	next, err := readResultFile(nextPath)
	if err != nil {
		fail(2, "%v", err)
	}
	fmt.Printf("base %s: %s seed=%d window=%ds runs=%d\n", basePath, base.Env, base.Seed, base.Seconds, base.Runs)
	fmt.Printf("new  %s: %s seed=%d window=%ds runs=%d\n", nextPath, next.Env, next.Seed, next.Seconds, next.Runs)
	if base.Seconds != next.Seconds || base.Env.NProc != next.Env.NProc {
		fmt.Println("warning: the two files differ in window length or processor count; the rows below compare unlike runs")
	}
	fmt.Printf("%-16s %-26s %14s %14s %-6s %18s %8s %8s  %s\n",
		"workload", "metric", "base median", "new median", "unit", "new/base", "spread a", "spread b", "verdict")
	code := 0
	for _, spec := range workloads {
		bw, nw := base.Workloads[spec.Name], next.Workloads[spec.Name]
		if bw == nil || nw == nil {
			fmt.Printf("%-16s missing from one of the files\n", spec.Name)
			code = 1
			continue
		}
		for _, d := range endToEndDefs {
			bs, ns := bw.EndToEnd[d.Name], nw.EndToEnd[d.Name]
			if bs == nil || ns == nil {
				continue // a churn-only metric on another workload
			}
			r, verdict := judge(d, bs.Values, ns.Values)
			fmt.Printf("%-16s %-26s %14.4f %14.4f %-6s %9.4f of %-7.4g %7.1f%% %7.1f%%  %s\n",
				spec.Name, d.Name, medianF(bs.Values), medianF(ns.Values), d.Unit,
				r, medianF(bs.Values), 100*spread(bs.Values), 100*spread(ns.Values), verdict)
			if verdict == verdictRegression || verdict == verdictViolated {
				code = 1
			}
		}
	}
	return code
}
