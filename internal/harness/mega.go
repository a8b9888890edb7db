package harness

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/history"
	"repro/internal/lincheck"
	"repro/internal/statemachine"
	"repro/internal/stats"
	"repro/internal/types"
)

// MegaStats is one arm of the C1 megaload experiment: an open-loop session
// swarm driven through the real client library (RPC plane included) while the
// membership churns. Every submitted op ends in exactly one bucket — Acked,
// Rejected (budget exhausted, every attempt answered with a redirect or a
// shed: provably never executed), Silent (abandoned with at least one
// unanswered attempt: outcome unknown), or Unresolved (still in flight when
// the drain deadline passed). The contract is Silent == 0, and it holds
// structurally: the client's budget bounds clean refusals only — a
// maybe-applied command is pursued under its sequence number until a
// definitive reply. (The naive client that gave up at its budget regardless,
// against servers without admission control, is a retired arm: EXPERIMENTS.md.)
type MegaStats struct {
	Label      string
	Acked      int64
	Rejected   int64
	Silent     int64
	Unresolved int64

	Attempts  int64 // RPC attempts across all sessions
	Redirects int64 // redirect replies followed
	Busy      int64 // SubmitBusy shed replies received

	Goodput float64       // acked ops/s over the offered-load window
	Latency stats.Summary // ack latency from *intended* start (CO-safe)
	Skew    stats.Summary // dispatch lag behind the intended schedule

	ShedSubmits     int64 // server-side submits bounced by admission control
	SubmitQueueHigh int64 // max proposal-queue high water over all nodes
	DroppedInbound  int64 // engine inbox overflows (silent message loss)
	Adopts          int64 // directory config adoptions
	Reconfigs       int   // storm steps that committed
	ReconfigErrs    int   // storm steps that failed or conflicted
	Violations      int64
}

// C1Result is the megaload accounting of the system as shipped: shared
// directory, jittered backoff, servers shedding past the admission bound.
type C1Result struct {
	Sessions int
	Rate     float64
	Duration time.Duration
	Smart    MegaStats
}

// megaCfg parameterizes one run of the megaload driver.
type megaCfg struct {
	label      string
	sessions   int
	rate       float64 // offered load, ops/s across all sessions
	dur        time.Duration
	stormEvery time.Duration // reconfiguration cadence (0 = no storm)
	drain      time.Duration // grace past the load window for in-flight ops
	budget     int           // per-op retry budget

	ops [][]byte          // optional op stream (default: small puts)
	rec *history.Recorder // optional shared history recorder (MEGA-LIN)

	dirs int // client "processes": Directories the sessions spread over (default 8)
}

// RunC1Megaload runs experiment C1: `sessions` open-loop client sessions
// offer `rate` ops/s through a reconfiguration storm.
func RunC1Megaload(tun Tuning, sessions int, rate float64, dur time.Duration) (C1Result, error) {
	res := C1Result{Sessions: sessions, Rate: rate, Duration: dur}
	var err error
	res.Smart, err = runMegaArm(tun, megaCfg{
		label:      "smart",
		sessions:   sessions,
		rate:       rate,
		dur:        dur,
		stormEvery: 400 * time.Millisecond,
		drain:      20 * time.Second,
		budget:     12,
	})
	return res, err
}

// runMegaArm drives one run: a 5-node pool (3 members + 2 spares), a client
// endpoint on the same simulated network, S sessions multiplexed over one
// Directory, and a global open-loop op schedule — op k is *intended* at
// start + k/rate and charged from that instant no matter how late the
// dispatcher or the service ran (coordinated-omission-safe).
func runMegaArm(tun Tuning, cfg megaCfg) (MegaStats, error) {
	out := MegaStats{Label: cfg.label}
	if tun.Node.SubmitQueue == 0 {
		tun.Node.SubmitQueue = 512
	}
	pool := nodeNames("n", 5)
	initial := pool[:3]
	dep, err := deploy(tun, statemachine.NewKVMachine, initial, pool[3:])
	if err != nil {
		return out, err
	}
	defer dep.Close()
	if err := waitWarm(dep); err != nil {
		return out, err
	}

	// One Directory models one client process: its sessions share one cached
	// config and one transport conn per server. Several of them spread the
	// swarm the way a real fleet of client hosts would — and keep the
	// simulated client NIC from becoming the experiment's bottleneck.
	nDirs := cfg.dirs
	if nDirs <= 0 {
		nDirs = 8
	}
	dirs := make([]*client.Directory, nDirs)
	for i := range dirs {
		dirs[i] = client.NewDirectory(dep.Network().Endpoint(types.NodeID(fmt.Sprintf("mega-client%d", i))), initial)
		defer dirs[i].Close()
	}
	// The backoff ceiling matters under sustained overload: shed ops must
	// retreat to second-scale retries or the retry traffic itself melts the
	// service.
	copts := client.Options{
		AttemptTimeout: 2 * time.Second,
		Resend:         20 * time.Millisecond,
		RetryBackoff:   5 * time.Millisecond,
		RetryMax:       2 * time.Second,
		RetryBudget:    cfg.budget,
		Recorder:       cfg.rec,
	}
	sessions := make([]*client.Client, cfg.sessions)
	for i := range sessions {
		sessions[i] = dirs[i%nDirs].Session(types.NodeID(fmt.Sprintf("c%d", i)), copts)
	}
	// Per-session locks order each session's ops (sequence numbers must be
	// issued and completed in order); ops of distinct sessions are free.
	mus := make([]sync.Mutex, cfg.sessions)
	seqs := make([]uint64, cfg.sessions)

	total := int(cfg.rate * cfg.dur.Seconds())
	if total < 1 {
		total = 1
	}
	interval := time.Duration(float64(time.Second) / cfg.rate)
	var lat, skew stats.LatencyRecorder
	var acked, rejected, silent, unresolved int64

	start := time.Now()
	drainDeadline := start.Add(cfg.dur + cfg.drain)

	// Reconfiguration storm: slide a 3-member window over the 5-node pool.
	stormStop := make(chan struct{})
	stormDone := make(chan struct{})
	go func() {
		defer close(stormDone)
		step := 0
		for {
			select {
			case <-stormStop:
				return
			case <-time.After(cfg.stormEvery):
			}
			if cfg.stormEvery <= 0 {
				return
			}
			step++
			// Shift the member window by two per step: each reconfiguration
			// replaces two of three members, so the successor serves only
			// after a real state transfer — the wedge window admission
			// control exists to protect.
			members := []types.NodeID{
				pool[(2*step)%len(pool)],
				pool[(2*step+1)%len(pool)],
				pool[(2*step+2)%len(pool)],
			}
			rctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if _, err := dep.Reconfigure(rctx, 0, members); err != nil {
				out.ReconfigErrs++
			} else {
				out.Reconfigs++
			}
			cancel()
		}
	}()

	// Enough workers that the swarm's in-flight concurrency is bounded by
	// the service, not the harness: an open-loop swarm must be able to pile
	// up far past the server-side queue bound, or the worker pool itself
	// becomes a flow-control valve that hides the overload.
	workers := cfg.sessions / 4
	if workers < 256 {
		workers = 256
	}
	if workers > 4096 {
		workers = 4096
	}
	if total < workers {
		workers = total
	}
	jobs := make(chan int, 1<<16)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				intended := start.Add(time.Duration(k) * interval)
				skew.Record(time.Since(intended))
				s := k % cfg.sessions
				var op []byte
				if cfg.ops != nil {
					op = cfg.ops[k%len(cfg.ops)]
				} else {
					op = statemachine.EncodePut(fmt.Sprintf("k%d", k%512), []byte("v"))
				}
				mus[s].Lock()
				seqs[s]++
				seq := seqs[s]
				ctx, cancel := context.WithDeadline(context.Background(), drainDeadline)
				_, err := sessions[s].SubmitSeq(ctx, seq, op)
				cancel()
				mus[s].Unlock()
				if err == nil {
					atomic.AddInt64(&acked, 1)
					lat.Record(time.Since(intended))
					continue
				}
				var be *client.BudgetError
				switch {
				case errors.As(err, &be) && !be.Ambiguous:
					atomic.AddInt64(&rejected, 1)
				case errors.As(err, &be):
					atomic.AddInt64(&silent, 1)
				default:
					atomic.AddInt64(&unresolved, 1)
				}
			}
		}()
	}
	for k := 0; k < total; k++ {
		intended := start.Add(time.Duration(k) * interval)
		if d := time.Until(intended); d > 0 {
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

	out.Acked, out.Rejected = acked, rejected
	out.Silent, out.Unresolved = silent, unresolved
	out.Goodput = float64(acked) / cfg.dur.Seconds()
	out.Latency = lat.Summarize()
	out.Skew = skew.Summarize()
	for _, c := range sessions {
		st := c.Stats()
		out.Attempts += st.Attempts
		out.Redirects += st.Redirects
		out.Busy += st.Busy
	}
	for _, d := range dirs {
		out.Adopts += d.Stats().Adopts
	}
	for _, id := range pool {
		n := dep.Node(0, id)
		if n == nil {
			continue
		}
		st := n.Stats()
		out.ShedSubmits += st.ShedSubmits
		if st.SubmitQueueHigh > out.SubmitQueueHigh {
			out.SubmitQueueHigh = st.SubmitQueueHigh
		}
		out.DroppedInbound += st.DroppedInbound
	}
	out.Violations = dep.TotalViolations()
	return out, nil
}

// Render formats the C1 comparison.
func (r C1Result) Render() string {
	row := func(m MegaStats) []string {
		return []string{
			m.Label,
			fmt.Sprintf("%d", m.Acked),
			fmt.Sprintf("%d", m.Rejected),
			fmt.Sprintf("%d", m.Silent),
			fmt.Sprintf("%d", m.Unresolved),
			fmtDur(m.Latency.P50),
			fmtDur(m.Latency.P99),
			fmtDur(m.Latency.P999),
			fmt.Sprintf("%.0f", m.Goodput),
		}
	}
	detail := func(m MegaStats) string {
		per := 0.0
		if n := m.Acked + m.Rejected + m.Silent + m.Unresolved; n > 0 {
			per = float64(m.Attempts) / float64(n)
		}
		return fmt.Sprintf(
			"  %s: %d attempts (%.1f/op), %d redirects, %d busy; directory adopts %d; dispatch skew p99 %s\n"+
				"  %s  servers shed %d (queue high %d), dropped inbound %d; reconfigs %d (+%d failed); violations %d\n",
			m.Label, m.Attempts, per, m.Redirects, m.Busy, m.Adopts, fmtDur(m.Skew.P99),
			strings.Repeat(" ", len(m.Label)), m.ShedSubmits, m.SubmitQueueHigh,
			m.DroppedInbound, m.Reconfigs, m.ReconfigErrs, m.Violations)
	}
	return fmt.Sprintf("C1: open-loop megaload through a reconfiguration storm (%d sessions, %.0f ops/s offered, %s)\n",
		r.Sessions, r.Rate, r.Duration) +
		renderTable(
			[]string{"arm", "acked", "rejected", "silent", "unresolved", "p50", "p99", "p999", "goodput"},
			[][]string{row(r.Smart)}) +
		detail(r.Smart)
}

// MegaLinResult is the outcome of the MEGA-LIN check: the megaload driver's
// smart arm run over random register ops with every session recording its
// history, checked for linearizability after the storm.
type MegaLinResult struct {
	Seed     int64
	Sessions int
	Duration time.Duration

	OkOps   int
	InfoOps int
	FailOps int

	Reconfigs    int
	Silent       int64
	Checked      int
	CheckParts   int
	CheckTime    time.Duration
	Linearizable bool
	Unknown      bool

	Counterexample string
}

// RunMegaLin reruns the megaload smart arm as a correctness check: the op
// stream is random register ops (seeded, precomputed), every session records
// into one shared history, and the result is checked against the sequential
// register model. This is the long-chaos "megaload + churn" entry.
func RunMegaLin(tun Tuning, seed int64, sessions int, rate float64, dur time.Duration) (MegaLinResult, error) {
	res := MegaLinResult{Seed: seed, Sessions: sessions, Duration: dur}
	rng := rand.New(rand.NewSource(seed))
	total := int(rate * dur.Seconds())
	if total < 1 {
		total = 1
	}
	ops := make([][]byte, total)
	for i := range ops {
		ops[i] = genRegisterOp(rng)
	}
	rec := history.New()
	arm, err := runMegaArm(tun, megaCfg{
		label:      "mega-lin",
		sessions:   sessions,
		rate:       rate,
		dur:        dur,
		stormEvery: 300 * time.Millisecond,
		drain:      20 * time.Second,
		budget:     12,
		ops:        ops,
		rec:        rec,
	})
	if err != nil {
		return res, err
	}
	rec.Drain()
	res.OkOps, res.InfoOps, res.FailOps = rec.Counts()
	res.Reconfigs = arm.Reconfigs
	res.Silent = arm.Silent
	if arm.Violations != 0 {
		return res, fmt.Errorf("harness: %d invariant violations under megaload", arm.Violations)
	}
	chk := lincheck.CheckHistory(lincheck.RegisterModel(), rec.Ops(), lincheck.Options{
		Timeout: 60 * time.Second,
	})
	res.Checked = chk.Ops
	res.CheckParts = chk.Partitions
	res.CheckTime = chk.Elapsed
	res.Linearizable = chk.Ok
	res.Unknown = chk.Unknown
	res.Counterexample = chk.Counterexample
	return res, nil
}

// Render formats the MEGA-LIN report.
func (r MegaLinResult) Render() string {
	verdict := "LINEARIZABLE"
	switch {
	case r.Unknown:
		verdict = "UNKNOWN (checker timeout)"
	case !r.Linearizable:
		verdict = "VIOLATION"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "MEGA-LIN: linearizability under megaload + churn (seed %d, %d sessions, %s)\n",
		r.Seed, r.Sessions, r.Duration)
	fmt.Fprintf(&b, "  history: %d ops (%d ok, %d ambiguous, %d failed); %d reconfigs; %d silent drops\n",
		r.OkOps+r.InfoOps+r.FailOps, r.OkOps, r.InfoOps, r.FailOps, r.Reconfigs, r.Silent)
	fmt.Fprintf(&b, "  checker: %d ops in %d partition(s) in %s -> %s\n",
		r.Checked, r.CheckParts, fmtDur(r.CheckTime), verdict)
	if r.Counterexample != "" {
		fmt.Fprintf(&b, "  counterexample:\n    %s\n",
			strings.ReplaceAll(strings.TrimRight(r.Counterexample, "\n"), "\n", "\n    "))
	}
	return b.String()
}
