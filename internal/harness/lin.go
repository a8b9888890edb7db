package harness

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/history"
	"repro/internal/lincheck"
	"repro/internal/nemesis"
	"repro/internal/statemachine"
	"repro/internal/types"
)

// composedNemesis adapts the composed system's group 0 to the nemesis fault
// surface.
type composedNemesis struct{ d *cluster.Cluster }

func (c composedNemesis) Partition(sides ...[]types.NodeID) { c.d.Network().Partition(sides...) }
func (c composedNemesis) Isolate(id types.NodeID)           { c.d.Network().Isolate(id) }
func (c composedNemesis) Heal()                             { c.d.Network().HealAll() }

func (c composedNemesis) CrashRestart(_ context.Context, id types.NodeID) error {
	c.d.Crash(id)
	return c.d.Restart(id)
}

func (c composedNemesis) Reconfigure(ctx context.Context, members []types.NodeID) error {
	attempt, cancel := context.WithTimeout(ctx, 8*time.Second)
	defer cancel()
	_, err := c.d.Reconfigure(attempt, 0, members)
	return err
}

func (c composedNemesis) Leader() types.NodeID { return c.d.Leader(0) }

// LinResult is the outcome of the LIN experiment: how much history was
// gathered under which faults, and what the checker decided.
type LinResult struct {
	Seed     int64
	Duration time.Duration
	Clients  int

	OkOps   int
	InfoOps int
	FailOps int

	Faults nemesis.Stats

	FastReads int64 // reads served by the fast path during the run
	Fenced    int64 // fast-path reads refused by wedge fencing
	Dropped   int64 // engine inbox overflows (silent message loss)

	Checked        int // operations the checker actually saw (ok + info)
	CheckParts     int // independent partitions (per-key)
	CheckTime      time.Duration
	Linearizable   bool
	Unknown        bool
	Counterexample string
}

// RunLin is the linearizability chaos experiment: concurrent clients drive
// random register ops against the composed system while a deterministic
// nemesis schedule (derived from seed) injects partitions, isolations,
// crash-restarts, leader kills and reconfigurations; afterwards the recorded
// history is checked against the sequential register model.
func RunLin(tun Tuning, seed int64, dur time.Duration, clients int) (LinResult, error) {
	res := LinResult{Seed: seed, Duration: dur, Clients: clients}
	pool := []types.NodeID{"n1", "n2", "n3", "n4", "n5"}
	initial, spares := pool[:3], pool[3:]
	dep, err := deploy(tun, statemachine.NewKVMachine, initial, spares)
	if err != nil {
		return res, err
	}
	defer dep.Close()

	rec := history.New()
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1009 + int64(g)))
			clientID := types.NodeID(fmt.Sprintf("lc%d", g))
			seq := uint64(0)
			for time.Now().Before(deadline) {
				seq++
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
					reply, err := dep.Submit(ctx, 0, clientID, seq, op)
					cancel()
					if err == nil {
						rec.Ok(h, reply)
						break
					}
					if !errors.Is(err, cluster.ErrNoReplica) {
						sent = true // the command reached a node; outcome ambiguous
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(g)
	}

	steps := int(dur / (300 * time.Millisecond))
	if steps < 3 {
		steps = 3
	}
	schedule := nemesis.Generate(seed, nemesis.Profile{Pool: pool, Steps: steps})
	nemCtx, nemCancel := context.WithDeadline(context.Background(), deadline)
	res.Faults = nemesis.Execute(nemCtx, composedNemesis{dep}, schedule)
	nemCancel()
	dep.Network().HealAll()

	wg.Wait()
	rec.Drain()
	res.OkOps, res.InfoOps, res.FailOps = rec.Counts()
	res.FastReads, res.Fenced, res.Dropped = readStats(dep)

	chk := lincheck.CheckHistory(lincheck.RegisterModel(), rec.Ops(), lincheck.Options{
		Timeout: 30 * time.Second,
	})
	res.Checked = chk.Ops
	res.CheckParts = chk.Partitions
	res.CheckTime = chk.Elapsed
	res.Linearizable = chk.Ok
	res.Unknown = chk.Unknown
	res.Counterexample = chk.Counterexample
	return res, nil
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

// Render formats the LIN experiment report.
func (r LinResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "LIN: linearizability under chaos (composed, seed %d, %d clients, %s)\n",
		r.Seed, r.Clients, r.Duration)
	fmt.Fprintf(&b, "  history: %d ops (%d ok, %d ambiguous, %d failed)\n",
		r.OkOps+r.InfoOps+r.FailOps, r.OkOps, r.InfoOps, r.FailOps)
	fmt.Fprintf(&b, "  faults:  %s\n", r.Faults)
	fmt.Fprintf(&b, "  reads:   %d fast, %d fenced; dropped inbound msgs: %d\n",
		r.FastReads, r.Fenced, r.Dropped)
	verdict := "LINEARIZABLE"
	switch {
	case r.Unknown:
		verdict = "UNKNOWN (checker timeout)"
	case !r.Linearizable:
		verdict = "VIOLATION"
	}
	fmt.Fprintf(&b, "  checker: %d ops in %d partition(s) in %s -> %s\n",
		r.Checked, r.CheckParts, fmtDur(r.CheckTime), verdict)
	if r.Counterexample != "" {
		fmt.Fprintf(&b, "  counterexample:\n    %s\n",
			strings.ReplaceAll(strings.TrimRight(r.Counterexample, "\n"), "\n", "\n    "))
	}
	return b.String()
}
