package client

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/reconfig"
	"repro/internal/transport"
	"repro/internal/types"
)

func busy(cfg types.Config, retryAfter time.Duration) reconfig.SubmitResult {
	return reconfig.SubmitResult{Status: reconfig.SubmitBusy, Config: cfg, RetryAfter: retryAfter}
}

// All sessions of one directory share the configuration cache: after one
// session walks a redirect, the others start at the fresh configuration
// without re-walking the chain.
func TestDirectorySharesConfigAcrossSessions(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	cfg2 := types.MustConfig(2, "n2")
	old := newFakeNode(t, net, "n1", func(cmd types.Command) reconfig.SubmitResult {
		return redirect(cfg2, "n2")
	})
	newFakeNode(t, net, "n2", func(cmd types.Command) reconfig.SubmitResult {
		return applied([]byte("ok"), cfg2, "n2")
	})
	dir := NewDirectory(net.Endpoint("c"), []types.NodeID{"n1"})
	defer dir.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s1 := dir.Session("c1", Options{})
	if _, err := s1.Submit(ctx, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if dir.KnownConfig().ID != 2 {
		t.Fatalf("directory did not adopt: %v", dir.KnownConfig())
	}
	before := old.submits.Load()

	// A second session must go straight to cfg2's member.
	s2 := dir.Session("c2", Options{})
	if _, err := s2.Submit(ctx, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if old.submits.Load() != before {
		t.Fatalf("second session re-walked the chain through retired n1")
	}
}

// A fresh directory's first attempt goes to the first seed — the member that
// campaigns first — not to a follower that would forward it, and later
// attempts rotate from there.
func TestDirectoryTargetsFirstSeedFirst(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	dir := NewDirectory(net.Endpoint("c"), []types.NodeID{"n1", "n2", "n3"})
	defer dir.Close()
	var got []types.NodeID
	for i := 0; i < 4; i++ {
		got = append(got, dir.nextTarget())
	}
	if want := []types.NodeID{"n1", "n2", "n3", "n1"}; !slices.Equal(got, want) {
		t.Fatalf("targets %v, want %v", got, want)
	}
}

// A leader hint stays until an attempt to that leader fails: after one
// acknowledged reply naming n2, every session of the directory sends its
// next attempts straight to n2 (no follower forwards them), and after a
// failed attempt to n2 the next one rotates over the members.
func TestDirectoryKeepsLeaderUntilAMiss(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	cfg := types.MustConfig(1, "n1", "n2", "n3")
	nodes := map[types.NodeID]*fakeNode{}
	for _, id := range cfg.Members {
		nodes[id] = newFakeNode(t, net, id, func(cmd types.Command) reconfig.SubmitResult {
			return applied([]byte("ok"), cfg, "n2")
		})
	}
	dir := NewDirectory(net.Endpoint("c"), []types.NodeID{"n1", "n2", "n3"})
	defer dir.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := dir.Session("c0", Options{}).Submit(ctx, []byte("x")); err != nil {
		t.Fatal(err)
	}

	const k, each = 8, 4
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		s := dir.Session(types.NodeID(fmt.Sprintf("s%d", i)), Options{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if _, err := s.Submit(ctx, []byte("y")); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if got := nodes["n2"].submits.Load(); got != k*each {
		t.Fatalf("the leader n2 received %d of %d submits (n1 %d, n3 %d): the hint was not kept",
			got, k*each, nodes["n1"].submits.Load()-1, nodes["n3"].submits.Load())
	}

	dir.miss("n1") // a miss at another node leaves the hint alone
	if got := dir.nextTarget(); got != "n2" {
		t.Fatalf("after a miss at n1 the next target is %s, want the leader n2", got)
	}
	dir.miss("n2")
	var got []types.NodeID
	for i := 0; i < len(cfg.Members); i++ {
		got = append(got, dir.nextTarget())
	}
	slices.Sort(got)
	if !slices.Equal(got, cfg.Members) {
		t.Fatalf("after a miss at n2 the next targets are %v, want one rotation over %v", got, cfg.Members)
	}
}

// Concurrent sessions racing to report the same newer configuration adopt it
// exactly once: the generation gate makes later reports no-ops.
func TestDirectoryAdoptsExactlyOnce(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	dir := NewDirectory(net.Endpoint("c"), []types.NodeID{"n1"})
	defer dir.Close()

	cfg2 := types.MustConfig(2, "n2")
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dir.observe(cfg2, "n2")
		}()
	}
	wg.Wait()
	if got := dir.Stats().Adopts; got != 1 {
		t.Fatalf("adopted %d times, want exactly once", got)
	}
	// An older hint must never regress the cache or count as adoption.
	dir.observe(types.MustConfig(1, "n1"), "")
	if dir.KnownConfig().ID != 2 || dir.Stats().Adopts != 1 {
		t.Fatalf("stale hint regressed cache: cfg=%v adopts=%d",
			dir.KnownConfig(), dir.Stats().Adopts)
	}
}

// Schedule bands: each delay between attempts lies within ±25% of
// BackoffDelay's midpoint (doubling, capped; reconfig's TestBackoffSchedule
// pins the midpoints), and a server RetryAfter hint floors the delay.
func TestClientBackoffSchedule(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	dir := NewDirectory(net.Endpoint("c"), []types.NodeID{"n1"})
	defer dir.Close()
	base, max := 2*time.Millisecond, 16*time.Millisecond
	c := dir.Session("c1", Options{RetryBackoff: base, RetryMax: max})

	inBand := func(got, mid time.Duration) bool { return got >= mid-mid/4 && got <= mid+mid/4 }
	want := []time.Duration{2, 4, 8, 16, 16, 16} // ms: doubling, capped
	for i, w := range want {
		if got := c.retryDelay(i+1, 0); !inBand(got, w*time.Millisecond) {
			t.Fatalf("attempt %d: delay %v, want %v ±25%%", i+1, got, w*time.Millisecond)
		}
	}
	// The server hint floors the backoff but never shortens it.
	if got := c.retryDelay(1, 50*time.Millisecond); got != 50*time.Millisecond {
		t.Fatalf("hint ignored: %v", got)
	}
	if got := c.retryDelay(4, time.Millisecond); !inBand(got, 16*time.Millisecond) {
		t.Fatalf("short hint shortened backoff: %v", got)
	}
}

// A budget-exhausted submit whose every attempt was answered with a shed is
// provably unexecuted: BudgetError.Ambiguous=false and the recorder sees a
// clean failure, not an ambiguous drop.
func TestClientBudgetExhaustedOnBusyIsClean(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	cfg := types.MustConfig(1, "n1")
	shed := newFakeNode(t, net, "n1", func(cmd types.Command) reconfig.SubmitResult {
		return busy(cfg, time.Millisecond)
	})
	rec := history.New()
	dir := NewDirectory(net.Endpoint("c"), []types.NodeID{"n1"})
	defer dir.Close()
	c := dir.Session("c1", Options{
		RetryBackoff: time.Millisecond,
		RetryBudget:  3,
		Recorder:     rec,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := c.Submit(ctx, []byte("x"))
	var be *BudgetError
	if !errors.As(err, &be) || !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want BudgetError, got %v", err)
	}
	if be.Ambiguous {
		t.Fatalf("all-shed budget exhaustion marked ambiguous: %+v", be)
	}
	if be.Attempts != 3 || shed.submits.Load() != 3 {
		t.Fatalf("attempts %d, server saw %d, want 3", be.Attempts, shed.submits.Load())
	}
	if c.Stats().Busy != 3 {
		t.Fatalf("busy count %d, want 3", c.Stats().Busy)
	}
	_, infoN, failN := rec.Counts()
	if failN != 1 || infoN != 0 {
		t.Fatalf("provably-unexecuted op must record fail: info=%d fail=%d", infoN, failN)
	}
}

// A timed-out attempt makes the command maybe-applied, and the smart client
// must NOT abandon it at the retry budget — it pursues the same sequence
// number until the context expires, then records Info (never Fail).
func TestClientPursuesAmbiguousPastBudget(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	net.Endpoint("mute") // registered, never answers
	rec := history.New()
	dir := NewDirectory(net.Endpoint("c"), []types.NodeID{"mute"})
	defer dir.Close()
	c := dir.Session("c1", Options{
		AttemptTimeout: 10 * time.Millisecond,
		RetryBackoff:   time.Millisecond,
		RetryMax:       2 * time.Millisecond,
		RetryBudget:    2,
		Recorder:       rec,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_, err := c.Submit(ctx, []byte("x"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ctx deadline (pursued past budget), got %v", err)
	}
	if got := c.Stats().Attempts; got <= 2 {
		t.Fatalf("budget cut off the ambiguous pursuit after %d attempts", got)
	}
	_, infoN, failN := rec.Counts()
	if infoN != 1 || failN != 0 {
		t.Fatalf("ambiguous op must record info: info=%d fail=%d", infoN, failN)
	}
}

// A shed client comes back and succeeds once the server recovers.
func TestClientRetriesThroughBusy(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	cfg := types.MustConfig(1, "n1")
	n := newFakeNode(t, net, "n1", nil)
	n.behavior = func(cmd types.Command) reconfig.SubmitResult {
		if n.submits.Load() <= 2 {
			return busy(cfg, time.Millisecond)
		}
		return applied([]byte("ok"), cfg, "n1")
	}
	dir := NewDirectory(net.Endpoint("c"), []types.NodeID{"n1"})
	defer dir.Close()
	c := dir.Session("c1", Options{RetryBackoff: time.Millisecond})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	reply, err := c.Submit(ctx, []byte("x"))
	if err != nil || string(reply) != "ok" {
		t.Fatalf("%q %v", reply, err)
	}
	if c.Stats().Busy == 0 {
		t.Fatal("busy replies not counted")
	}
}
