package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/history"
	"repro/internal/lincheck"
	"repro/internal/nemesis"
	"repro/internal/statemachine"
	"repro/internal/transport"
	"repro/internal/types"
)

// chaosSeed mirrors the reconfig chaos tests: deterministic default,
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

// chaosPool is the five processes the chaos tests run on: group 0 starts on
// the first three, the last two are idle spares.
var chaosPool = []types.NodeID{"n1", "n2", "n3", "n4", "n5"}

// chaosCluster starts group 0 over chaosPool on links of one-way delay link
// ± link/2 with FastOptions timing; submitQueue sets the admission bound (0
// keeps the default).
func chaosCluster(t *testing.T, link time.Duration, submitQueue int) *Cluster {
	t.Helper()
	opts := FastOptions()
	opts.SubmitQueue = submitQueue
	c := New(Config{
		Transport: transport.Options{BaseLatency: link, Jitter: link / 2, Seed: 1},
		Node:      opts,
	})
	t.Cleanup(c.Close)
	if err := c.CreateGroup(0, chaosPool[:3], statemachine.NewKVMachine); err != nil {
		t.Fatal(err)
	}
	for _, id := range chaosPool[3:] {
		if _, err := c.AddReplica(0, id); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// genRegisterOp draws one random KV op over a small key/value space, mixing
// blind writes, reads, appends, deletes and CAS.
func genRegisterOp(rng *rand.Rand) []byte {
	key := fmt.Sprintf("k%d", rng.Intn(8))
	val := func() []byte { return []byte(fmt.Sprintf("v%d", rng.Intn(6))) }
	switch rng.Intn(10) {
	case 0, 1, 2:
		return statemachine.EncodePut(key, val())
	case 3, 4, 5:
		return statemachine.EncodeGet(key)
	case 6:
		return statemachine.EncodeDelete(key)
	case 7, 8:
		return statemachine.EncodeAppend(key, []byte{byte('a' + rng.Intn(4))})
	default:
		return statemachine.EncodeCAS(key, val(), val())
	}
}

// checkLinearizable checks a drained history against the sequential register
// model; a checker timeout fails like a violation.
func checkLinearizable(t *testing.T, seed int64, rec *history.Recorder, timeout time.Duration) {
	t.Helper()
	chk := lincheck.CheckHistory(lincheck.RegisterModel(), rec.Ops(), lincheck.Options{Timeout: timeout})
	t.Logf("checker: %d ops in %d partition(s) in %s", chk.Ops, chk.Partitions, chk.Elapsed.Round(time.Millisecond))
	if chk.Unknown {
		t.Fatalf("checker timed out (seed %d)", seed)
	}
	if !chk.Ok {
		t.Fatalf("linearizability violation (seed %d):\n%s", seed, chk.Counterexample)
	}
}

// clusterNemesis adapts group 0 of a Cluster to the nemesis fault surface:
// crash-restart goes through Crash/Restart of the whole process.
type clusterNemesis struct{ c *Cluster }

func (n clusterNemesis) Partition(sides ...[]types.NodeID) { n.c.Network().Partition(sides...) }
func (n clusterNemesis) Isolate(id types.NodeID)           { n.c.Network().Isolate(id) }
func (n clusterNemesis) Heal()                             { n.c.Network().HealAll() }

func (n clusterNemesis) CrashRestart(_ context.Context, id types.NodeID) error {
	n.c.Crash(id)
	return n.c.Restart(id)
}

func (n clusterNemesis) Reconfigure(ctx context.Context, members []types.NodeID) error {
	attempt, cancel := context.WithTimeout(ctx, 8*time.Second)
	defer cancel()
	_, err := n.c.Reconfigure(attempt, 0, members)
	return err
}

func (n clusterNemesis) Leader() types.NodeID { return n.c.Leader(0) }

// TestLinearizabilityCluster drives concurrent clients of random register ops
// against group 0 while a seeded nemesis schedule of every kind (partitions,
// isolations, process crash-restarts, leader kills, reconfigurations) runs
// through the Cluster's own fault surface; the recorded history must be
// linearizable. The full size is 4 clients for 5 s (16 nemesis steps) on
// 200µs ± 100µs links; -short runs 3 clients for 1.2 s on 100µs ± 50µs.
func TestLinearizabilityCluster(t *testing.T) {
	seed := chaosSeed(t, 7)
	dur, clients, link := 5*time.Second, 4, 200*time.Microsecond
	if testing.Short() {
		dur, clients, link = 1200*time.Millisecond, 3, 100*time.Microsecond
	}
	c := chaosCluster(t, link, 0)

	rec := history.New()
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1009 + int64(g)))
			clientID := types.NodeID(fmt.Sprintf("lc%d", g))
			for seq := uint64(1); time.Now().Before(deadline); seq++ {
				op := genRegisterOp(rng)
				h := rec.Invoke(clientID, seq, op)
				sent := false
				for {
					if !time.Now().Before(deadline) {
						if !sent {
							rec.Fail(h) // never reached a node: certainly not executed
						}
						return // else leave pending; Drain marks it ambiguous
					}
					ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
					reply, err := c.Submit(ctx, 0, clientID, seq, op)
					cancel()
					if err == nil {
						rec.Ok(h, reply)
						break
					}
					if !errors.Is(err, ErrNoReplica) {
						sent = true // the command reached a node; outcome ambiguous
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(g)
	}

	steps := max(int(dur/(300*time.Millisecond)), 3)
	schedule := nemesis.Generate(seed, nemesis.Profile{Pool: chaosPool, Steps: steps})
	nemCtx, nemCancel := context.WithDeadline(context.Background(), deadline)
	faults := nemesis.Execute(nemCtx, clusterNemesis{c}, schedule)
	nemCancel()
	c.Network().HealAll()
	wg.Wait()
	rec.Drain()

	ok, info, fail := rec.Counts()
	t.Logf("history: %d ok, %d ambiguous, %d failed; faults: %s", ok, info, fail, faults)
	if ok == 0 {
		t.Fatal("no acknowledged ops; the run proved nothing")
	}
	if faults.Total() == 0 {
		t.Fatal("no faults injected")
	}
	checkLinearizable(t, seed, rec, 30*time.Second)
}

// megaload is one open-loop session swarm driven through the real client
// library while a storm reconfigures group 0. Every submitted op ends in
// exactly one bucket: acked; rejected (budget exhausted with every attempt
// answered by a redirect or a shed: provably never executed); silent
// (abandoned after an unanswered attempt: outcome unknown); or unresolved
// (still in flight when the drain deadline passed).
type megaload struct {
	sessions   int
	rate       float64 // offered load, ops/s across all sessions
	dur        time.Duration
	stormEvery time.Duration     // reconfiguration cadence
	ops        [][]byte          // op stream (nil: small puts)
	rec        *history.Recorder // shared history recorder (nil: none)

	acked, rejected, silent, unresolved atomic.Int64
	reconfigs                           int   // storm steps that committed
	adopts                              int64 // directory config adoptions
}

// run drives the swarm: sessions spread over eight Directories (client
// processes), op k intended at start + k/rate, and a storm that shifts the
// 3-member window two places over chaosPool every stormEvery, so each
// reconfiguration replaces two of three members and the successor serves
// only after a real state transfer.
func (m *megaload) run(t *testing.T, c *Cluster) {
	t.Helper()
	mustSubmit(t, groupCtx(t), c, 0, "warmup", 1, statemachine.EncodePut("warm", []byte("1")))

	const nDirs = 8
	copts := client.Options{
		AttemptTimeout: 2 * time.Second,
		RetryBackoff:   5 * time.Millisecond,
		RetryMax:       2 * time.Second,
		RetryBudget:    12,
		Recorder:       m.rec,
	}
	dirs := make([]*client.Directory, nDirs)
	for i := range dirs {
		dirs[i] = client.NewDirectory(c.Network().Endpoint(types.NodeID(fmt.Sprintf("mega-client%d", i))), chaosPool[:3])
		defer dirs[i].Close()
	}
	sessions := make([]*client.Client, m.sessions)
	for i := range sessions {
		sessions[i] = dirs[i%nDirs].Session(types.NodeID(fmt.Sprintf("c%d", i)), copts)
	}
	// Per-session locks order each session's ops (sequence numbers must be
	// issued and completed in order); ops of distinct sessions are free.
	mus := make([]sync.Mutex, m.sessions)
	seqs := make([]uint64, m.sessions)

	total := max(int(m.rate*m.dur.Seconds()), 1)
	interval := time.Duration(float64(time.Second) / m.rate)
	start := time.Now()
	drainDeadline := start.Add(m.dur + 20*time.Second)

	stormStop := make(chan struct{})
	stormDone := make(chan struct{})
	go func() {
		defer close(stormDone)
		for step := 1; ; step++ {
			select {
			case <-stormStop:
				return
			case <-time.After(m.stormEvery):
			}
			members := []types.NodeID{
				chaosPool[(2*step)%len(chaosPool)],
				chaosPool[(2*step+1)%len(chaosPool)],
				chaosPool[(2*step+2)%len(chaosPool)],
			}
			rctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if _, err := c.Reconfigure(rctx, 0, members); err == nil {
				m.reconfigs++
			}
			cancel()
		}
	}()

	// Enough workers that in-flight concurrency is bounded by the service,
	// not the driver: an open-loop swarm must pile up far past the
	// server-side queue bound, or the worker pool itself becomes a
	// flow-control valve that hides the overload.
	workers := min(max(m.sessions/4, 256), 4096, total)
	// Deep enough that the dispatcher does not block behind busy workers
	// and every op leaves at its intended time.
	jobs := make(chan int, 1<<16)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				s := k % m.sessions
				op := statemachine.EncodePut(fmt.Sprintf("k%d", k%512), []byte("v"))
				if m.ops != nil {
					op = m.ops[k%len(m.ops)]
				}
				mus[s].Lock()
				seqs[s]++
				ctx, cancel := context.WithDeadline(context.Background(), drainDeadline)
				_, err := sessions[s].SubmitSeq(ctx, seqs[s], op)
				cancel()
				mus[s].Unlock()
				var be *client.BudgetError
				switch {
				case err == nil:
					m.acked.Add(1)
				case errors.As(err, &be) && !be.Ambiguous:
					m.rejected.Add(1)
				case errors.As(err, &be):
					m.silent.Add(1)
				default:
					m.unresolved.Add(1)
				}
			}
		}()
	}
	for k := 0; k < total; k++ {
		if d := time.Until(start.Add(time.Duration(k) * interval)); d > 0 {
			time.Sleep(d)
		}
		jobs <- k
	}
	close(jobs)
	// Load window over: stop churning so the drain settles, then wait out
	// the in-flight tail.
	close(stormStop)
	<-stormDone
	wg.Wait()
	for _, d := range dirs {
		m.adopts += d.Stats().Adopts
	}
	t.Logf("%d sessions, %.0f ops/s offered for %s: %d acked, %d rejected, %d silent, %d unresolved; %d reconfigs, %d adopts",
		m.sessions, m.rate, m.dur, m.acked.Load(), m.rejected.Load(), m.silent.Load(), m.unresolved.Load(), m.reconfigs, m.adopts)
}

// TestMegaload checks the client's accounting contract under overload: a few
// thousand open-loop sessions through a reconfiguration storm, with servers
// shedding past a small admission bound. Every op ends acked or cleanly
// rejected, never silently dropped or left dangling — the client's budget
// bounds clean refusals only, and a maybe-applied command is pursued under
// its sequence number until a definitive reply.
func TestMegaload(t *testing.T) {
	c := chaosCluster(t, 100*time.Microsecond, 256)
	m := &megaload{sessions: 5000, rate: 1000, dur: 2 * time.Second, stormEvery: 400 * time.Millisecond}
	m.run(t, c)

	acked, silent, unresolved := m.acked.Load(), m.silent.Load(), m.unresolved.Load()
	if got, total := acked+m.rejected.Load()+silent+unresolved, int64(m.rate*m.dur.Seconds()); got != total {
		t.Fatalf("lost ops: %d accounted, %d offered", got, total)
	}
	if silent != 0 {
		t.Fatalf("%d silent drops", silent)
	}
	if unresolved != 0 {
		t.Fatalf("%d ops unresolved after the drain window", unresolved)
	}
	if acked == 0 {
		t.Fatal("acked nothing")
	}
	if m.reconfigs == 0 {
		t.Fatal("the storm never reconfigured; the run proved nothing")
	}
	if m.adopts == 0 {
		t.Fatal("directory never adopted a configuration")
	}
	if v := c.TotalViolations(); v != 0 {
		t.Fatalf("violations: %d", v)
	}
}

// TestLinearizabilityMegaload reruns the megaload swarm over seeded random
// register ops with every session recording into one shared history, and
// checks it against the sequential register model — the long-chaos
// "megaload + churn" entry. The full size is 10 000 sessions at 2 000 ops/s
// for 5 s, run twice: on 100µs ± 50µs links with an admission bound of 256,
// and on 200µs ± 100µs links with a bound of 512. Short mode runs a small
// swarm on the first fabric.
func TestLinearizabilityMegaload(t *testing.T) {
	seed := chaosSeed(t, 42)
	if testing.Short() {
		runMegaLin(t, seed, chaosCluster(t, 100*time.Microsecond, 256), 2000, 600, 2*time.Second)
		return
	}
	t.Run("links100us-queue256", func(t *testing.T) {
		runMegaLin(t, seed, chaosCluster(t, 100*time.Microsecond, 256), 10000, 2000, 5*time.Second)
	})
	t.Run("links200us-queue512", func(t *testing.T) {
		runMegaLin(t, seed, chaosCluster(t, 200*time.Microsecond, 512), 10000, 2000, 5*time.Second)
	})
}

// runMegaLin drives one history-recording megaload swarm of seeded register
// ops against c and checks it.
func runMegaLin(t *testing.T, seed int64, c *Cluster, sessions int, rate float64, dur time.Duration) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ops := make([][]byte, max(int(rate*dur.Seconds()), 1))
	for i := range ops {
		ops[i] = genRegisterOp(rng)
	}
	rec := history.New()
	m := &megaload{sessions: sessions, rate: rate, dur: dur, stormEvery: 300 * time.Millisecond, ops: ops, rec: rec}
	m.run(t, c)
	rec.Drain()

	if v := c.TotalViolations(); v != 0 {
		t.Fatalf("violations: %d", v)
	}
	if n := m.silent.Load(); n != 0 {
		t.Fatalf("%d silent drops", n)
	}
	if ok, _, _ := rec.Counts(); ok == 0 {
		t.Fatal("no acknowledged ops; the run proved nothing")
	}
	if m.reconfigs == 0 {
		t.Fatal("no churn; the run proved nothing")
	}
	checkLinearizable(t, seed, rec, 60*time.Second)
}
