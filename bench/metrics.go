package main

import (
	"math"
	"sort"
)

// metric is one named measurement in a result.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// percentile returns the p-th percentile (0 < p <= 100) of ascending samples
// by the nearest-rank method: the smallest sample with at least p% of the
// samples at or below it. Zero samples give 0.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := rankOf(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n samples.
// The epsilon keeps 99.9% of 10000 at 9990 when the product is a hair above.
func rankOf(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// percentileLadder is the set highestSupported chooses from.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// highestSupported returns the highest percentile of the ladder that still has
// at least ten samples beyond it, and ok=false when not even the median has.
// A percentile with fewer samples beyond it is set by a handful of ops and
// does not repeat from run to run.
func highestSupported(n int) (p float64, ok bool) {
	for _, q := range percentileLadder {
		if n-rankOf(q, n) < 10 {
			break
		}
		p, ok = q, true
	}
	return p, ok
}

// median of float64 values; 0 for none.
func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ackGaps walks the merged, ascending ack timeline of a window [start,end) and
// returns the sum of the ack-free intervals longer than threshold and the
// longest ack-free interval. The window edges count as acks, so a stall that
// runs into the end of the window is seen.
func ackGaps(acks []int64, start, end, threshold int64) (sumOver, longest int64) {
	prev := start
	visit := func(t int64) {
		if g := t - prev; g > 0 {
			if g > threshold {
				sumOver += g
			}
			if g > longest {
				longest = g
			}
		}
		prev = t
	}
	for _, t := range acks {
		if t < start || t >= end {
			continue
		}
		visit(t)
	}
	visit(end)
	return sumOver, longest
}

// gapWithin returns the longest ack-free interval that overlaps [from,to) on
// the ascending ack timeline, clipped to that range.
func gapWithin(acks []int64, from, to int64) int64 {
	i := sort.Search(len(acks), func(i int) bool { return acks[i] >= from })
	prev := from
	var longest int64
	for ; i < len(acks) && acks[i] < to; i++ {
		if g := acks[i] - prev; g > longest {
			longest = g
		}
		prev = acks[i]
	}
	if g := to - prev; g > longest {
		longest = g
	}
	return longest
}

// ratio is a/b, and 0 when b is 0 (a per-reconfig metric on a workload that
// never reconfigures).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// opRec is one acknowledged op: when its reply arrived and how long it took,
// both in ns.
type opRec struct{ ack, lat int64 }

// medianIntervalRate cuts the ascending ack timeline into the intervals
// [cuts[i], cuts[i+1]) and returns the median interval's acks per second and
// the number of intervals. One interval in which the service stood still does
// not move it, where it moves a whole-window mean.
func medianIntervalRate(acks, cuts []int64) (perS float64, n int) {
	var rates []float64
	for c := 0; c+1 < len(cuts); c++ {
		lo := sort.Search(len(acks), func(i int) bool { return acks[i] >= cuts[c] })
		hi := sort.Search(len(acks), func(i int) bool { return acks[i] >= cuts[c+1] })
		rates = append(rates, ratio(float64(hi-lo), float64(cuts[c+1]-cuts[c])/1e9))
	}
	return medianF(rates), len(rates)
}
