package harness

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/statemachine"
	"repro/internal/types"
	"repro/internal/workload"
)

// shortTuning keeps smoke tests fast: sub-millisecond links, 1ms ticks.
func shortTuning() Tuning {
	t := DefaultTuning()
	t.Net.BaseLatency = 100 * time.Microsecond
	t.Net.Jitter = 50 * time.Microsecond
	return t
}

func TestDeploymentsServeAllKinds(t *testing.T) {
	for _, kind := range []SystemKind{Composed, StopTheWorld, Inband} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			dep, err := NewDeployment(kind, shortTuning(), statemachine.NewKVMachine,
				nodeNames("n", 3), []types.NodeID{"s1"})
			if err != nil {
				t.Fatal(err)
			}
			defer dep.Close()
			if err := waitWarm(dep); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, err := dep.Submit(ctx, "c", 1, statemachine.EncodePut("k", []byte("v"))); err != nil {
				t.Fatal(err)
			}
			// Member swap works on every system.
			if err := dep.Reconfigure(ctx, []types.NodeID{"n1", "n2", "s1"}); err != nil {
				t.Fatal(err)
			}
			members := dep.Members()
			found := false
			for _, m := range members {
				if m == "s1" {
					found = true
				}
			}
			if !found {
				t.Fatalf("members after swap: %v", members)
			}
			// State survived the swap.
			deadline := time.Now().Add(10 * time.Second)
			for {
				a, cancel2 := context.WithTimeout(ctx, time.Second)
				reply, err := dep.Submit(a, "c", 2, statemachine.EncodeGet("k"))
				cancel2()
				if err == nil {
					if string(statemachine.ReplyPayload(reply)) != "v" {
						t.Fatalf("state lost: %q", statemachine.ReplyPayload(reply))
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("never served after swap: %v", err)
				}
			}
			if v := dep.Violations(); v != 0 {
				t.Fatalf("violations: %d", v)
			}
		})
	}
}

func TestRunLoadProducesTrace(t *testing.T) {
	dep, err := NewDeployment(Composed, shortTuning(), statemachine.NewKVMachine, nodeNames("n", 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if err := waitWarm(dep); err != nil {
		t.Fatal(err)
	}
	trace := NewTrace()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	runLoad(ctx, dep, 2, workload.Profile{Keys: 10, ReadRatio: 0.5, Seed: 1}, trace)
	cancel()
	if trace.Acked() == 0 {
		t.Fatal("no acks recorded")
	}
	if trace.Throughput() <= 0 {
		t.Fatal("no throughput")
	}
	if len(trace.Series(10*time.Millisecond)) == 0 {
		t.Fatal("no series")
	}
	if s := trace.LatencySummary(); s.Count != trace.Acked() {
		t.Fatalf("latency count %d vs acked %d", s.Count, trace.Acked())
	}
}

func TestPreloadFillsState(t *testing.T) {
	dep, err := NewDeployment(Composed, shortTuning(), statemachine.NewKVMachine, nodeNames("n", 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if err := waitWarm(dep); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	keys, err := preload(ctx, dep, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	if keys < 8 {
		t.Fatalf("keys %d", keys)
	}
	reply, err := dep.Submit(ctx, "check", 1, statemachine.EncodeSize())
	if err != nil {
		t.Fatal(err)
	}
	n, _ := statemachine.DecodeUvarintReply(statemachine.ReplyPayload(reply))
	if int(n) < keys {
		t.Fatalf("machine holds %d keys, preloaded %d", n, keys)
	}
}

func TestRunDisruptionSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	for _, kind := range []SystemKind{Composed, StopTheWorld, Inband} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			res, err := RunDisruption(kind, shortTuning(), 1200*time.Millisecond, 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Throughput <= 0 {
				t.Fatal("no throughput")
			}
			if res.ViolationsSum != 0 {
				t.Fatalf("violations %d", res.ViolationsSum)
			}
			if res.Gap <= 0 {
				t.Fatal("gap not measured")
			}
			if out := res.Render(); !strings.Contains(out, kind.String()) {
				t.Fatalf("render: %s", out)
			}
		})
	}
}

func TestRunT1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res, err := RunT1StaticScaling(shortTuning(), []int{1, 3}, 500*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0].Throughput <= 0 {
		t.Fatalf("%+v", res)
	}
	if out := res.Render(); !strings.Contains(out, "replicas") {
		t.Fatal("render broken")
	}
}

// TestRunDurableTablesSmoke runs the two tables that lost a retired arm — T1D
// (mem and wal rows) and W1 (one row per pipeline depth) — on real WAL
// directories, and checks each still has a row per cell with load on it.
func TestRunDurableTablesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	t1d, err := RunT1Durable(shortTuning(), []string{cluster.StorageMem, cluster.StorageWAL}, 3, 300*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1d.Rows) != 2 || t1d.Rows[1].Backend != cluster.StorageWAL || t1d.Rows[1].Throughput <= 0 {
		t.Fatalf("%+v", t1d)
	}
	w1, err := RunW1WritePath(shortTuning(), []int{1, 4}, 300*time.Millisecond, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(w1.Rows) != 2 || w1.Rows[1].Pipeline != 4 || w1.Rows[1].Throughput <= 0 {
		t.Fatalf("%+v", w1)
	}
	if out := t1d.Render() + w1.Render(); !strings.Contains(out, "backend") || !strings.Contains(out, "depth") {
		t.Fatalf("render broken:\n%s", out)
	}
}

func TestRunT3FailoverSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res, err := RunT3Failover(shortTuning(), 1500*time.Millisecond, 2, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.CrashToServe <= 0 || res.Throughput <= 0 {
		t.Fatalf("%+v", res)
	}
	if out := res.Render(); !strings.Contains(out, "failover") {
		t.Fatal("render broken")
	}
}

func TestRunF4AlphaSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res, err := RunF4Alpha(shortTuning(), []int{1, 8}, 500*time.Millisecond, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	// α=8 should beat α=1 under concurrent load.
	if res.Rows[1].Throughput <= res.Rows[0].Throughput {
		t.Logf("warning: alpha=8 (%f) not faster than alpha=1 (%f) in short run",
			res.Rows[1].Throughput, res.Rows[0].Throughput)
	}
	if out := res.Render(); !strings.Contains(out, "α=1") {
		t.Fatal("render broken")
	}
}

func TestSparklineAndTable(t *testing.T) {
	if s := sparkline(nil, 10); s != "(empty)" {
		t.Fatal(s)
	}
	if s := sparkline([]int64{0, 0}, 10); !strings.Contains(s, "_") {
		t.Fatal(s)
	}
	s := sparkline([]int64{1, 5, 9, 2}, 4)
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline %q", s)
	}
	tbl := renderTable([]string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	if !strings.Contains(tbl, "333") || !strings.Contains(tbl, "--") {
		t.Fatalf("table:\n%s", tbl)
	}
}

func TestSystemKindString(t *testing.T) {
	if Composed.String() != "composed" || StopTheWorld.String() != "stop-the-world" || Inband.String() != "inband" {
		t.Fatal("kind strings")
	}
}

func TestRunF2FullReplacementSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res, err := RunF2StateTransfer(shortTuning(), []int{16 << 10}, 1200*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Two variants per size: spec-on, spec-off.
	if len(res.Rows) != 2 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.ReconfigTook <= 0 || row.Gap <= 0 {
			t.Fatalf("unmeasured row %+v", row)
		}
	}
	if out := res.Render(); !strings.Contains(out, "speculative") {
		t.Fatal("render broken")
	}
}

func TestRunT4MessageCostSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res, err := RunT4MessageCost(shortTuning(), 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.MsgsPerOp < 3 { // at minimum accept+accepted+decide on 3 nodes
			t.Fatalf("implausible msgs/op %f for %s", row.MsgsPerOp, row.System)
		}
		if row.ReconfigMsgs == 0 {
			t.Fatalf("no reconfig traffic counted for %s", row.System)
		}
	}
	if out := res.Render(); !strings.Contains(out, "reconf-msgs") {
		t.Fatal("render broken")
	}
}

func TestRunF3ElasticSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res, err := RunF3Elastic(shortTuning(), 250*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acked == 0 || len(res.Marks) != 4 {
		t.Fatalf("acked %d marks %d", res.Acked, len(res.Marks))
	}
	if len(res.Chain) != 5 || res.Chain[len(res.Chain)-1] != "3" {
		t.Fatalf("chain %v", res.Chain)
	}
}

func TestRunDisruptionMedianSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res, err := RunDisruptionMedian(Composed, shortTuning(), 900*time.Millisecond, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gap <= 0 || res.Throughput <= 0 {
		t.Fatalf("%+v", res)
	}
}

func TestRunLinSmoke(t *testing.T) {
	res, err := RunLin(shortTuning(), 7, 1200*time.Millisecond, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unknown {
		t.Fatal("checker timed out on a smoke-sized history")
	}
	if !res.Linearizable {
		t.Fatalf("linearizability violation (seed %d):\n%s", res.Seed, res.Counterexample)
	}
	if res.OkOps == 0 {
		t.Fatal("no acknowledged ops; the run proved nothing")
	}
	if res.Faults.Total() == 0 {
		t.Fatal("no faults injected")
	}
	out := res.Render()
	for _, want := range []string{"LIN:", "seed 7", "LINEARIZABLE"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestRunK1CatchupSmoke runs both arms of the catch-up shootout at a small
// lag and checks the mechanisms actually engaged: the checkpoint arm must
// have fetched a checkpoint and truncated log slots, the ablation must have
// replayed (no fetches) with the full log retained.
func TestRunK1CatchupSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	tun := shortTuning()
	tun.Node.CheckpointInterval = 300
	tun.Node.CatchupGapSlots = 600
	res, err := RunK1Catchup(tun, 64<<10, 2000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("want 2 arms, got %+v", res.Rows)
	}
	ckpt, abl := res.Rows[0], res.Rows[1]
	if !ckpt.Checkpoints || abl.Checkpoints {
		t.Fatalf("arm order: %+v", res.Rows)
	}
	if ckpt.Published == 0 || ckpt.Fetches == 0 || ckpt.Truncated == 0 {
		t.Fatalf("checkpoint arm never engaged: %+v", ckpt)
	}
	if ckpt.Retained >= abl.Retained {
		t.Fatalf("truncation did not bound the log: checkpoint retained %d >= ablation %d",
			ckpt.Retained, abl.Retained)
	}
	if abl.Fetches != 0 || abl.Published != 0 || abl.Truncated != 0 {
		t.Fatalf("ablation arm used checkpoints: %+v", abl)
	}
	out := res.Render()
	for _, want := range []string{"K1:", "checkpoints", "no-checkpoints"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
