package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/storage"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]int64, 100)
	for i := range v {
		v[i] = int64(i + 1) // 1..100
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
}

func TestHighestSupportedNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},      // median is rank 10: 9 beyond
		{20, 50, true},      // median is rank 10: 10 beyond
		{100, 90, true},     // p90 is rank 90: 10 beyond; p99 has 1
		{999, 90, true},     // p99 is rank 990: 9 beyond
		{1000, 99, true},    // p99 is rank 990: 10 beyond; p99.9 has 1
		{10000, 99.9, true}, // p99.9 is rank 9990: 10 beyond
		{150000, 99.99, true},
		{1000000, 99.999, true},
	} {
		got, ok := highestSupported(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestSupported(%d) = %v,%v, want %v,%v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestAckGapsOnSyntheticTimeline(t *testing.T) {
	msNS := int64(time.Millisecond)
	// Window [1000ms, 2000ms). Acks every 1 ms, except two stalls of 100 ms
	// and 200 ms (one per reconfiguration) and silence in the last 50 ms.
	var acks []int64
	for t := int64(900); t < 2100; t++ {
		switch {
		case t > 1200 && t < 1300, t > 1600 && t < 1800, t > 1950 && t < 2000:
			continue
		}
		acks = append(acks, t*msNS)
	}
	sumOver, longest := ackGaps(acks, 1000*msNS, 2000*msNS, 5*msNS)
	if want := (100 + 200 + 50) * msNS; sumOver != want {
		t.Errorf("gaps over 5 ms sum to %d ms, want %d ms", sumOver/msNS, want/msNS)
	}
	if longest != 200*msNS {
		t.Errorf("longest gap %d ms, want 200 ms", longest/msNS)
	}
	if got, want := ratio(ms(sumOver), 2), 175.0; got != want {
		t.Errorf("unavail_ms_per_reconfig = %v, want %v", got, want)
	}
	// The 1 ms gaps between ordinary acks never count.
	if sum, _ := ackGaps(acks, 1000*msNS, 1200*msNS, 5*msNS); sum != 0 {
		t.Errorf("a stall-free stretch has %d ns over the threshold", sum)
	}
	// No acks at all: the whole window is one gap.
	if sum, long := ackGaps(nil, 0, 1000*msNS, 5*msNS); sum != 1000*msNS || long != 1000*msNS {
		t.Errorf("empty timeline: sum %d longest %d, want the whole window", sum, long)
	}

	if got := gapWithin(acks, 1150*msNS, 1550*msNS); got != 100*msNS {
		t.Errorf("longest gap after the change at 1150 ms = %d ms, want 100", got/msNS)
	}
	if got := gapWithin(acks, 1700*msNS, 2100*msNS); got != 100*msNS {
		t.Errorf("a gap that began before the range is clipped to it: got %d ms, want 100", got/msNS)
	}
}

func TestMedianIntervalRateIgnoresOneStalledInterval(t *testing.T) {
	msNS := int64(time.Millisecond)
	// Five intervals of 400 ms, one ack per ms, except that the service stands
	// still through the whole third interval.
	var acks []int64
	for at := int64(0); at < 2000; at++ {
		if at < 800 || at >= 1200 {
			acks = append(acks, at*msNS)
		}
	}
	cuts := []int64{0, 400 * msNS, 800 * msNS, 1200 * msNS, 1600 * msNS, 2000 * msNS}
	if perS, n := medianIntervalRate(acks, cuts); n != 5 || perS != 1000 {
		t.Errorf("median interval: %v acks/s over %d intervals; want 1000 over 5", perS, n)
	}
	if _, n := medianIntervalRate(acks, cuts[:1]); n != 0 {
		t.Errorf("one cut makes %d intervals, want 0", n)
	}
}

// A service that drops an acknowledged write, or serves a read from before
// the last acknowledged write, must be flagged by the same checker the
// workloads use. The faults are played by a correct service plus a session
// whose record of what was acknowledged is ahead of what it really wrote.
func TestReadBackFlagsDroppedWriteAndStaleRead(t *testing.T) {
	outDir = t.TempDir()
	sv, sessions, err := setUp(workloadSpec{Name: "test", Sessions: 1}, members, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.close()
	s := sessions[0]
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.put(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if wrong, failed := s.readBack(ctx); wrong != 0 || failed != 0 {
		t.Fatalf("correct service: %d wrong, %d failed", wrong, failed)
	}
	s.last[7] = 1 // "acknowledged" but never stored: a dropped write
	if wrong, _ := s.readBack(ctx); wrong != 1 {
		t.Errorf("dropped write: %d keys flagged, want 1", wrong)
	}
	s.last[7] = 0
	s.last[5]++ // the service still holds the value before the "last" put: a stale read
	if wrong, _ := s.readBack(ctx); wrong != 1 {
		t.Errorf("stale read: %d keys flagged, want 1", wrong)
	}
	s.last[5]--
	s.unsure[5] = true // a failed put leaves the key undecided: not checked
	s.last[5] = 99
	if wrong, _ := s.readBack(ctx); wrong != 0 {
		t.Errorf("undecided key flagged %d times", wrong)
	}
}

// The decorator must keep paxos on its group-commit path, and must not be
// there at all on an untraced run.
func TestStoreDecoratorKeepsGroupCommit(t *testing.T) {
	outDir = t.TempDir()
	spec := workloadSpec{Name: "test", Sessions: 1}
	bare := storage.NewMem()
	if handed, ts := handStore(bare, "n1", nil); handed != storage.Store(bare) || ts != nil {
		t.Errorf("untraced run hands in %T, want the bare *storage.MemStore", handed)
	}
	tr := newTracer(time.Now())
	handed, ts := handStore(bare, "n1", tr)
	if _, ok := handed.(storage.BufferedStore); !ok || ts == nil {
		t.Fatalf("traced run hands in %T, which is not a storage.BufferedStore", handed)
	}
	plain, _ := traceStore(unbufferedStore{storage.NewMem()}, "n1", tr)
	if _, buffered := plain.(storage.BufferedStore); buffered {
		t.Error("decorator adds SetBuffered to a store that has none")
	}

	sv, sessions, err := setUp(spec, members, 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for k := 0; k < 50; k++ {
		if err := sessions[0].put(ctx, k); err != nil {
			t.Fatal(err)
		}
	}
	if gc := sv.nodeTotals().groupCommits; gc == 0 {
		t.Error("NodeStats.GroupCommits = 0 through the decorator: paxos fell off the group-commit path")
	}
	var writes int64
	for _, ts := range sv.traced {
		writes += ts.counts().writes
	}
	if len(sv.traced) != len(members) || writes == 0 {
		t.Errorf("decorators saw %d writes on %d stores", writes, len(sv.traced))
	}
}

// unbufferedStore hides a MemStore's SetBuffered.
type unbufferedStore struct{ storage.Store }

func TestBusyBucketsSplitAcrossSeconds(t *testing.T) {
	s := &tracedStore{}
	sec := int64(time.Second)
	s.addBusy(sec/2, 2*sec+sec/4) // 0.5 s in bucket 0, 1 s in bucket 1, 0.25 s in bucket 2
	want := []int64{sec / 2, sec, sec / 4}
	if len(s.busyByS) != len(want) {
		t.Fatalf("buckets %v, want %v", s.busyByS, want)
	}
	for i := range want {
		if s.busyByS[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, s.busyByS[i], want[i])
		}
	}
}

func TestJudgeVerdicts(t *testing.T) {
	ops := e2eDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	lat := e2eDef{Name: "lat_p50_us", Better: "lower", Bound: 0.10}
	zero := e2eDef{Name: "wrong_results", Better: "lower", HasLimit: true}
	for _, c := range []struct {
		name       string
		def        e2eDef
		base, next []float64
		want       string
	}{
		{"same", ops, []float64{100, 101, 99}, []float64{100, 100, 102}, verdictWithin},
		{"throughput fell 20%", ops, []float64{100, 101, 99}, []float64{80, 81, 79}, verdictRegression},
		{"throughput rose 20%", ops, []float64{100, 101, 99}, []float64{120, 121, 119}, verdictWithin},
		{"latency rose 20%", lat, []float64{100, 101, 99}, []float64{120, 121, 119}, verdictRegression},
		{"latency fell 20%", lat, []float64{100, 101, 99}, []float64{80, 81, 79}, verdictWithin},
		{"runs too far apart to say", ops, []float64{100, 120, 90}, []float64{80, 81, 79}, verdictUnresolved},
		{"zero stays zero", zero, []float64{0, 0, 0}, []float64{0, 0, 0}, verdictOK},
		{"one wrong result", zero, []float64{0, 0, 0}, []float64{0, 1, 0}, verdictViolated},
	} {
		if _, got := judge(c.def, c.base, c.next); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	r, _ := judge(ops, []float64{100}, []float64{80})
	if math.Abs(r-0.8) > 1e-9 {
		t.Errorf("ratio to base = %v, want 0.8", r)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(v); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// BENCHMARK.json is written by hand; this keeps it and the program's own
// tables from drifting apart.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].Name)
		}
	}
	if len(bj.EndToEnd) != len(driverEndToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bj.EndToEnd), len(driverEndToEnd))
	}
	for i, m := range bj.EndToEnd {
		def, _ := defOf(driverEndToEnd[i])
		if m.Name != def.Name || m.Unit != def.Unit || m.Better != def.Better || m.Bound != def.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, def)
		}
	}

	// What a run prints must carry the declared units, for every end-to-end
	// metric (an empty churn window prints them all).
	res := &runResult{EndToEnd: map[string]metric{}, Diag: map[string]metric{}, PerLayer: map[string]metric{}}
	empty := &window{seconds: 1, spec: workloadSpec{Churn: true}}
	empty.endToEnd(res, []float64{1}, 0, 0, 0)
	for _, d := range endToEndDefs {
		if got, ok := res.EndToEnd[d.Name]; !ok || got.Unit != d.Unit {
			t.Errorf("end-to-end metric %s: a run prints unit %q (present: %v), declared %q", d.Name, got.Unit, ok, d.Unit)
		}
	}
	if len(res.EndToEnd) != len(endToEndDefs) {
		t.Errorf("a run prints %d end-to-end metrics, %d are declared", len(res.EndToEnd), len(endToEndDefs))
	}

	// Every per-layer name a traced run prints, from the empty window.
	empty.perLayer(res)
	var listed []string
	for _, m := range bj.PerLayer {
		listed = append(listed, m.Name)
		if got, ok := res.PerLayer[m.Name]; ok && got.Unit != m.Unit {
			t.Errorf("per-layer metric %s: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, got.Unit)
		}
	}
	sort.Strings(listed)
	printed := sortedNames(res.PerLayer)
	if len(listed) != len(printed) {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, %d printed by a traced run", len(listed), len(printed))
	}
	for i := 0; i < len(listed) && i < len(printed); i++ {
		if listed[i] != printed[i] {
			t.Errorf("per-layer metrics differ at %q (BENCHMARK.json) vs %q (program)", listed[i], printed[i])
			break
		}
	}
}

// Every probe must run to the end and report under the names the README lists.
func TestProbesRun(t *testing.T) {
	outDir = t.TempDir()
	probes, err := runProbes(time.Millisecond, nil)
	leavePhase()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"types.cmd_codec_ns", "transport.rtt_us_p50", "rpc.call_us_p50",
		"storage.wal_append_sync_us_p50", "storage.wal_group16_sync_us_p50", "storage.wal_delete_sync_us_p50",
		"statemachine.apply_ns", "statemachine.dup_apply_ns",
		"statemachine.fork_snapshot_us", "statemachine.snapshot_mb_per_s", "statemachine.restore_mb_per_s",
		"paxos.slot_us_p50", "paxos.slot_us_p99", "paxos.slots_per_s", "paxos.slot_wal_us_p50",
		"paxos.readindex_us_p50", "paxos.elect_ms_p50",
		"reconfig.submit_us_p50", "reconfig.single_node_submit_us_p50",
		"client.submit_us_p50", "client.read_us_p50",
		"budget.unattributed_us", "budget.unattributed_frac",
	} {
		if _, ok := probes[name]; !ok {
			t.Errorf("probe metric %s missing", name)
		}
	}
}
