package harness

import (
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// chaosSeed mirrors the reconfig chaos harness: deterministic default,
// overridable with CHAOS_SEED for reproduction.
func chaosSeed(t *testing.T, def int64) int64 {
	t.Helper()
	seed := def
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("seed %d (rerun with CHAOS_SEED=%d)", seed, seed)
	return seed
}

// TestMegaload is the CI-sized C1 run: a few thousand open-loop sessions
// through a reconfiguration storm. The accounting contract is checked
// exactly — every op ends acked or cleanly rejected,
// never silently dropped or left dangling.
func TestMegaload(t *testing.T) {
	tun := shortTuning()
	tun.Node.SubmitQueue = 256
	sessions, rate, dur := 5000, 1000.0, 2*time.Second
	res, err := RunC1Megaload(tun, sessions, rate, dur)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())

	total := int64(rate * dur.Seconds())
	if got := res.Smart.Acked + res.Smart.Rejected + res.Smart.Silent + res.Smart.Unresolved; got != total {
		t.Fatalf("smart arm lost ops: %d accounted, %d offered", got, total)
	}
	// Zero silent drops: the smart arm may shed, but every unserved submit
	// was answered (SubmitBusy or redirect) and every op has an outcome.
	if res.Smart.Silent != 0 {
		t.Fatalf("smart arm had %d silent drops", res.Smart.Silent)
	}
	if res.Smart.Unresolved != 0 {
		t.Fatalf("smart arm left %d ops unresolved after the drain window", res.Smart.Unresolved)
	}
	if res.Smart.Acked == 0 {
		t.Fatal("smart arm acked nothing")
	}
	if res.Smart.Reconfigs == 0 {
		t.Fatal("the storm never reconfigured; the run proved nothing")
	}
	if res.Smart.Violations != 0 {
		t.Fatalf("violations: %d", res.Smart.Violations)
	}
	// The shared directory adopts each new configuration once per client
	// process.
	if res.Smart.Adopts == 0 {
		t.Fatal("directory never adopted a configuration")
	}
	out := res.Render()
	for _, want := range []string{"C1:", "smart", "goodput"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestLinearizabilityMegaload reruns the megaload smart arm over random
// register ops with full history recording and checks the result against the
// sequential register model — the long-chaos "megaload + churn" entry.
// Short mode runs a small swarm; the nightly matrix runs the full size.
func TestLinearizabilityMegaload(t *testing.T) {
	seed := chaosSeed(t, 42)
	tun := shortTuning()
	tun.Node.SubmitQueue = 256
	sessions, rate, dur := 10000, 2000.0, 5*time.Second
	if testing.Short() {
		sessions, rate, dur = 2000, 600.0, 2*time.Second
	}
	res, err := RunMegaLin(tun, seed, sessions, rate, dur)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	if res.Unknown {
		t.Fatal("checker timed out")
	}
	if !res.Linearizable {
		t.Fatalf("linearizability violation (seed %d):\n%s", res.Seed, res.Counterexample)
	}
	if res.OkOps == 0 {
		t.Fatal("no acknowledged ops; the run proved nothing")
	}
	if res.Reconfigs == 0 {
		t.Fatal("no churn; the run proved nothing")
	}
	if res.Silent != 0 {
		t.Fatalf("smart arm had %d silent drops", res.Silent)
	}
}
