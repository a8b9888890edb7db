package lincheck

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/statemachine"
)

func completed(client string, in, out []byte, call, ret int64) Operation {
	return Operation{Client: client, Input: in, Output: out, Call: call, Return: ret, HasOutput: true}
}

func ambiguous(client string, in []byte, call int64) Operation {
	return Operation{Client: client, Input: in, Call: call}
}

func ok(payload []byte) []byte {
	out := []byte{byte(statemachine.StatusOK)}
	return append(out, payload...)
}

func notFound() []byte { return []byte{byte(statemachine.StatusNotFound)} }

func conflict(cur []byte) []byte {
	out := []byte{byte(statemachine.StatusConflict)}
	return append(out, cur...)
}

func mustCheck(t *testing.T, m Model, ops []Operation) Result {
	t.Helper()
	res := Check(m, ops, Options{Timeout: 30 * time.Second})
	if res.Unknown {
		t.Fatal("checker timed out")
	}
	return res
}

func requireOk(t *testing.T, m Model, ops []Operation) {
	t.Helper()
	if res := mustCheck(t, m, ops); !res.Ok {
		t.Fatalf("valid history rejected:\n%s", res.Counterexample)
	}
}

func requireViolation(t *testing.T, m Model, ops []Operation) Result {
	t.Helper()
	res := mustCheck(t, m, ops)
	if res.Ok {
		t.Fatal("corrupted history accepted as linearizable")
	}
	if res.Counterexample == "" {
		t.Fatal("violation reported without a counterexample dump")
	}
	return res
}

func TestRegisterSequentialHistoryPasses(t *testing.T) {
	requireOk(t, RegisterModel(), []Operation{
		completed("c1", statemachine.EncodePut("k", []byte("v1")), ok(nil), 0, 1),
		completed("c2", statemachine.EncodeGet("k"), ok([]byte("v1")), 2, 3),
		completed("c1", statemachine.EncodeCAS("k", []byte("v1"), []byte("v2")), ok(nil), 4, 5),
		completed("c2", statemachine.EncodeGet("k"), ok([]byte("v2")), 6, 7),
		completed("c1", statemachine.EncodeDelete("k"), ok(nil), 8, 9),
		completed("c2", statemachine.EncodeGet("k"), notFound(), 10, 11),
		completed("c1", statemachine.EncodeAppend("k", []byte("ab")), ok(nil), 12, 13),
		completed("c2", statemachine.EncodeGet("k"), ok([]byte("ab")), 14, 15),
	})
}

// Mutation 1 (from the issue): drop an applied write. The surviving read
// observes a value nothing ever wrote — must be rejected.
func TestMutationDroppedWriteRejected(t *testing.T) {
	good := []Operation{
		completed("c1", statemachine.EncodePut("k", []byte("v1")), ok(nil), 0, 1),
		completed("c2", statemachine.EncodeGet("k"), ok([]byte("v1")), 2, 3),
	}
	requireOk(t, RegisterModel(), good)
	requireViolation(t, RegisterModel(), good[1:]) // the put vanished
}

// Mutation 2 (from the issue): reorder a read before its write — the read's
// window closes before the write's opens, so no linearization exists.
func TestMutationReorderedReadRejected(t *testing.T) {
	good := []Operation{
		completed("c1", statemachine.EncodePut("k", []byte("v1")), ok(nil), 0, 1),
		completed("c2", statemachine.EncodeGet("k"), ok([]byte("v1")), 2, 3),
	}
	requireOk(t, RegisterModel(), good)
	mutated := []Operation{
		completed("c2", statemachine.EncodeGet("k"), ok([]byte("v1")), 0, 1),
		completed("c1", statemachine.EncodePut("k", []byte("v1")), ok(nil), 2, 3),
	}
	requireViolation(t, RegisterModel(), mutated)
}

// Mutation 3 (from the issue): duplicate a non-idempotent op. Two
// acknowledged add(5)s both returning 5 means one command applied twice
// under a single acknowledgment (or the dedup layer leaked) — rejected.
func TestMutationDuplicatedAddRejected(t *testing.T) {
	good := []Operation{
		completed("c1", statemachine.EncodeAdd(5), ok(uvarintBytes(5)), 0, 1),
		completed("c1", statemachine.EncodeAdd(5), ok(uvarintBytes(10)), 2, 3),
	}
	requireOk(t, CounterModel(), good)
	dup := []Operation{
		completed("c1", statemachine.EncodeAdd(5), ok(uvarintBytes(5)), 0, 1),
		completed("c1", statemachine.EncodeAdd(5), ok(uvarintBytes(5)), 2, 3),
	}
	requireViolation(t, CounterModel(), dup)
}

func TestStaleReadRejected(t *testing.T) {
	requireViolation(t, RegisterModel(), []Operation{
		completed("c1", statemachine.EncodePut("k", []byte("v1")), ok(nil), 0, 1),
		completed("c1", statemachine.EncodePut("k", []byte("v2")), ok(nil), 2, 3),
		completed("c2", statemachine.EncodeGet("k"), ok([]byte("v1")), 4, 5),
	})
}

// Concurrent operations may linearize in either order.
func TestConcurrentWritesEitherOrder(t *testing.T) {
	base := []Operation{
		completed("c1", statemachine.EncodePut("k", []byte("v1")), ok(nil), 0, 10),
		completed("c2", statemachine.EncodePut("k", []byte("v2")), ok(nil), 0, 10),
	}
	for _, final := range []string{"v1", "v2"} {
		ops := append(append([]Operation(nil), base...),
			completed("c3", statemachine.EncodeGet("k"), ok([]byte(final)), 11, 12))
		requireOk(t, RegisterModel(), ops)
	}
	ops := append(append([]Operation(nil), base...),
		completed("c3", statemachine.EncodeGet("k"), ok([]byte("v3")), 11, 12))
	requireViolation(t, RegisterModel(), ops)
}

// An ambiguous (timed-out) write may or may not have taken effect; both
// subsequent observations are legal, but a third value is not.
func TestAmbiguousWriteEitherOutcome(t *testing.T) {
	for _, observed := range []string{"v1", "v2"} {
		requireOk(t, RegisterModel(), []Operation{
			completed("c1", statemachine.EncodePut("k", []byte("v1")), ok(nil), 0, 1),
			ambiguous("c2", statemachine.EncodePut("k", []byte("v2")), 2),
			completed("c3", statemachine.EncodeGet("k"), ok([]byte(observed)), 10, 11),
		})
	}
	requireViolation(t, RegisterModel(), []Operation{
		completed("c1", statemachine.EncodePut("k", []byte("v1")), ok(nil), 0, 1),
		ambiguous("c2", statemachine.EncodePut("k", []byte("v2")), 2),
		completed("c3", statemachine.EncodeGet("k"), ok([]byte("v3")), 10, 11),
	})
}

// An ambiguous op must not be REQUIRED to execute before its call time: a
// read completing before the ambiguous write was invoked cannot see it.
func TestAmbiguousOpCannotTimeTravel(t *testing.T) {
	requireViolation(t, RegisterModel(), []Operation{
		completed("c1", statemachine.EncodeGet("k"), ok([]byte("v9")), 0, 1),
		ambiguous("c2", statemachine.EncodePut("k", []byte("v9")), 5),
	})
}

func TestConcurrentCASOneWinner(t *testing.T) {
	setup := completed("c0", statemachine.EncodePut("k", []byte("a")), ok(nil), 0, 1)
	// Two CAS a->b racing: exactly one may succeed.
	requireOk(t, RegisterModel(), []Operation{
		setup,
		completed("c1", statemachine.EncodeCAS("k", []byte("a"), []byte("b")), ok(nil), 2, 10),
		completed("c2", statemachine.EncodeCAS("k", []byte("a"), []byte("b")), conflict([]byte("b")), 2, 10),
	})
	requireViolation(t, RegisterModel(), []Operation{
		setup,
		completed("c1", statemachine.EncodeCAS("k", []byte("a"), []byte("b")), ok(nil), 2, 10),
		completed("c2", statemachine.EncodeCAS("k", []byte("a"), []byte("b")), ok(nil), 2, 10),
	})
}

func TestBankSemantics(t *testing.T) {
	good := []Operation{
		completed("adm", statemachine.EncodeOpen("a", 10), ok(nil), 0, 1),
		completed("adm", statemachine.EncodeOpen("b", 0), ok(nil), 2, 3),
		completed("c1", statemachine.EncodeTransfer("a", "b", 5), ok(nil), 4, 5),
		completed("c2", statemachine.EncodeBalance("a"), ok(uvarintBytes(5)), 6, 7),
		completed("c2", statemachine.EncodeTotal(), ok(uvarintBytes(10)), 8, 9),
		completed("c1", statemachine.EncodeTransfer("a", "b", 100), conflict(nil), 10, 11),
		completed("adm", statemachine.EncodeOpen("a", 1), conflict(nil), 12, 13),
		completed("c2", statemachine.EncodeDeposit("z", 1), notFound(), 14, 15),
	}
	requireOk(t, BankModel(), good)

	// Mutation: the acknowledged transfer left no trace — balance stayed 10.
	bad := append([]Operation(nil), good...)
	bad[3] = completed("c2", statemachine.EncodeBalance("a"), ok(uvarintBytes(10)), 6, 7)
	requireViolation(t, BankModel(), bad)
}

func TestPartitionByKeyDecomposes(t *testing.T) {
	var ops []Operation
	ts := int64(0)
	for k := 0; k < 6; k++ {
		key := fmt.Sprintf("k%d", k)
		ops = append(ops,
			completed("c1", statemachine.EncodePut(key, []byte("x")), ok(nil), ts, ts+1),
			completed("c2", statemachine.EncodeGet(key), ok([]byte("x")), ts+2, ts+3),
		)
		ts += 4
	}
	res := mustCheck(t, RegisterModel(), ops)
	if !res.Ok {
		t.Fatalf("valid history rejected:\n%s", res.Counterexample)
	}
	if res.Partitions != 6 {
		t.Fatalf("expected 6 partitions, got %d", res.Partitions)
	}
}

func TestCounterexampleIsMinimized(t *testing.T) {
	if minimizeBudget != 2*time.Second {
		t.Fatalf("minimizeBudget %v, want 2s", minimizeBudget)
	}
	// 40 irrelevant ops on other keys plus a 2-op violation; the dump must
	// shrink to (roughly) the violating pair.
	var ops []Operation
	ts := int64(0)
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("pad%d", i)
		ops = append(ops,
			completed("c1", statemachine.EncodePut(key, []byte("x")), ok(nil), ts, ts+1),
			completed("c2", statemachine.EncodeGet(key), ok([]byte("x")), ts+2, ts+3),
		)
		ts += 4
	}
	// Violation on key kx: pad ops are in other partitions, but the kx
	// partition itself gets padding too so minimization has work to do.
	for i := 0; i < 10; i++ {
		ops = append(ops, completed("c1", statemachine.EncodePut("kx", []byte("ok")), ok(nil), ts, ts+1))
		ts += 2
	}
	ops = append(ops, completed("c2", statemachine.EncodeGet("kx"), ok([]byte("never-written")), ts, ts+1))
	res := requireViolation(t, RegisterModel(), ops)
	if !strings.Contains(res.Counterexample, "minimized from") {
		t.Fatalf("no minimization marker:\n%s", res.Counterexample)
	}
	// The minimized core of this violation is the single impossible read.
	if n := strings.Count(res.Counterexample, "\n"); n > 4 {
		t.Fatalf("counterexample not minimized (%d lines):\n%s", n, res.Counterexample)
	}
}

// TestMutationFuzz drives the checker with randomized valid histories (from
// an actual sequential execution with overlapping windows) and guaranteed
// violations (a read of a value that never existed). 100% of seeded bad
// histories must be flagged.
func TestMutationFuzz(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		machine := statemachine.NewKVStore()
		var ops []Operation
		ts := int64(0)
		clients := []string{"c1", "c2", "c3"}
		for i := 0; i < 120; i++ {
			key := fmt.Sprintf("k%d", rng.Intn(4))
			var in []byte
			switch rng.Intn(4) {
			case 0:
				in = statemachine.EncodePut(key, []byte(fmt.Sprintf("v%d", rng.Intn(5))))
			case 1:
				in = statemachine.EncodeGet(key)
			case 2:
				in = statemachine.EncodeAppend(key, []byte{byte('a' + rng.Intn(3))})
			default:
				in = statemachine.EncodeCAS(key,
					[]byte(fmt.Sprintf("v%d", rng.Intn(5))), []byte(fmt.Sprintf("v%d", rng.Intn(5))))
			}
			out := machine.Apply(in)
			// Windows overlap (ret jitter) but preserve the apply order.
			ops = append(ops, completed(clients[rng.Intn(3)], in, out, ts, ts+1+int64(rng.Intn(3))))
			ts += 2
		}
		requireOk(t, RegisterModel(), ops)

		// Seeded bug: corrupt one read to a value nothing ever wrote.
		bad := append([]Operation(nil), ops...)
		idx := -1
		for i, op := range bad {
			if statemachine.KVOp(op.Input[0]) == statemachine.KVGet {
				idx = i
				break
			}
		}
		if idx < 0 {
			continue
		}
		bad[idx].Output = ok([]byte("value-that-never-existed"))
		requireViolation(t, RegisterModel(), bad)
	}
}

// TestCheckerThroughput10k: a 10k-op multi-key history must check in
// seconds, not minutes (the acceptance budget for the end-to-end run is
// 30s; the checker itself should be far under that).
func TestCheckerThroughput10k(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	machine := statemachine.NewKVStore()
	clients := make([]string, 6)
	for i := range clients {
		clients[i] = fmt.Sprintf("c%d", i)
	}
	var ops []Operation
	ts := int64(0)
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("k%d", rng.Intn(8))
		var in []byte
		switch rng.Intn(3) {
		case 0:
			in = statemachine.EncodePut(key, []byte(fmt.Sprintf("v%d", rng.Intn(6))))
		case 1:
			in = statemachine.EncodeGet(key)
		default:
			in = statemachine.EncodeAppend(key, []byte{byte('a' + rng.Intn(4))})
		}
		out := machine.Apply(in)
		ops = append(ops, completed(clients[rng.Intn(len(clients))], in, out, ts, ts+1+int64(rng.Intn(4))))
		ts += 2
	}
	res := Check(RegisterModel(), ops, Options{Timeout: 20 * time.Second})
	if res.Unknown {
		t.Fatalf("10k-op check exceeded 20s (took %s)", res.Elapsed)
	}
	if !res.Ok {
		t.Fatalf("valid 10k-op history rejected:\n%s", res.Counterexample)
	}
	t.Logf("checked %d ops in %d partitions in %s", res.Ops, res.Partitions, res.Elapsed)
}

func TestFromHistoryConversion(t *testing.T) {
	rec := history.New()
	h1 := rec.Invoke("c1", 1, statemachine.EncodeAdd(1))
	rec.Ok(h1, ok(uvarintBytes(1)))
	h2 := rec.Invoke("c1", 2, statemachine.EncodeAdd(1))
	rec.Info(h2)
	h3 := rec.Invoke("c2", 1, statemachine.EncodeCounterGet())
	rec.Fail(h3)
	ops := FromHistory(rec.Ops())
	if len(ops) != 2 {
		t.Fatalf("expected 2 checkable ops (fail dropped), got %d", len(ops))
	}
	if !ops[0].HasOutput || ops[1].HasOutput {
		t.Fatalf("outcome mapping wrong: %+v", ops)
	}
	res := CheckHistory(CounterModel(), rec.Ops(), Options{Timeout: 5 * time.Second})
	if !res.Ok {
		t.Fatalf("history rejected:\n%s", res.Counterexample)
	}
}

// Mutation 4 (speculative start): a joiner that applies a speculative
// decision — or serves a read — from its pre-install state. The Put is
// acknowledged before the reconfiguration and folded into the snapshot the
// joiner is still fetching; a joiner that answers the Get from its empty
// machine before the install produces a read of state that never existed
// at that point in time. The checker must reject it.
func TestMutationSpeculativePreInstallReadRejected(t *testing.T) {
	good := []Operation{
		completed("c1", statemachine.EncodePut("k", []byte("pre")), ok(nil), 0, 1),
		completed("c2", statemachine.EncodeGet("k"), ok([]byte("pre")), 2, 3),
	}
	requireOk(t, RegisterModel(), good)
	mutated := []Operation{
		completed("c1", statemachine.EncodePut("k", []byte("pre")), ok(nil), 0, 1),
		// Served by the broken joiner from its not-yet-installed machine.
		completed("c2", statemachine.EncodeGet("k"), notFound(), 2, 3),
	}
	requireViolation(t, RegisterModel(), mutated)
}

// Mutation 5 (speculative start): a broken base-index skip. The snapshot the
// joiner installs already folds in add(5) (decided at a slot ≤ the snapshot's
// base index); a joiner that replays the parked decision on top of the
// install applies it twice, so the next add observes an inflated total. The
// checker must reject the resulting history.
func TestMutationSpeculativeDoubleApplyRejected(t *testing.T) {
	good := []Operation{
		completed("c1", statemachine.EncodeAdd(5), ok(uvarintBytes(5)), 0, 1),
		completed("c2", statemachine.EncodeAdd(2), ok(uvarintBytes(7)), 2, 3),
	}
	requireOk(t, CounterModel(), good)
	mutated := []Operation{
		completed("c1", statemachine.EncodeAdd(5), ok(uvarintBytes(5)), 0, 1),
		// 12 = 5 applied from the snapshot AND from the parked decision, +2.
		completed("c2", statemachine.EncodeAdd(2), ok(uvarintBytes(12)), 2, 3),
	}
	requireViolation(t, CounterModel(), mutated)
}
