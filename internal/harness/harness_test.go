package harness

import (
	"context"
	"strings"
	"testing"
	"time"

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
	t.Run("composed", func(t *testing.T) {
		dep, err := deploy(shortTuning(), statemachine.NewKVMachine,
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
		if _, err := dep.Submit(ctx, 0, "c", 1, statemachine.EncodePut("k", []byte("v"))); err != nil {
			t.Fatal(err)
		}
		if _, err := dep.Reconfigure(ctx, 0, []types.NodeID{"n1", "n2", "s1"}); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, m := range dep.Members(0) {
			if m == "s1" {
				found = true
			}
		}
		if !found {
			t.Fatalf("members after swap: %v", dep.Members(0))
		}
		// State survived the swap.
		deadline := time.Now().Add(10 * time.Second)
		for {
			a, cancel2 := context.WithTimeout(ctx, time.Second)
			reply, err := dep.Submit(a, 0, "c", 2, statemachine.EncodeGet("k"))
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
		if v := dep.TotalViolations(); v != 0 {
			t.Fatalf("violations: %d", v)
		}
	})
}

func TestRunLoadProducesTrace(t *testing.T) {
	dep, err := deploy(shortTuning(), statemachine.NewKVMachine, nodeNames("n", 3), nil)
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
	if trace.Count() == 0 {
		t.Fatal("no acks recorded")
	}
	if trace.Throughput() <= 0 {
		t.Fatal("no throughput")
	}
	if len(trace.Series(10*time.Millisecond)) == 0 {
		t.Fatal("no series")
	}
	if s := trace.LatencyWindow(trace.Start(), time.Now()); s.Count != trace.Count() {
		t.Fatalf("latency count %d vs acked %d", s.Count, trace.Count())
	}
}

func TestPreloadFillsState(t *testing.T) {
	dep, err := deploy(shortTuning(), statemachine.NewKVMachine, nodeNames("n", 3), nil)
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
	reply, err := dep.Submit(ctx, 0, "check", 1, statemachine.EncodeSize())
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
	t.Run("composed", func(t *testing.T) {
		res, err := RunDisruption(shortTuning(), 1200*time.Millisecond, 2, 0)
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
		// The swap n3 -> s1 brings in one new member, whose first decide in
		// the successor configuration is the TTFD.
		if !res.TTFDKnown || res.TTFD <= 0 {
			t.Fatalf("ttfd not measured: %+v", res)
		}
	})
}

func TestSparklineAndTable(t *testing.T) {
	tbl := renderTable([]string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	if !strings.Contains(tbl, "333") || !strings.Contains(tbl, "--") {
		t.Fatalf("table:\n%s", tbl)
	}
}

func TestRunDisruptionMedianSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res, err := RunDisruptionMedian(shortTuning(), 900*time.Millisecond, 2, 0)
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
