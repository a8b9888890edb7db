package reconfig

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/lincheck"
	"repro/internal/nemesis"
	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// This file is the end-to-end linearizability suite: concurrent clients
// drive a 5-node cluster through a deterministic nemesis schedule while a
// history recorder captures every operation (including ambiguous timeouts);
// afterwards the lincheck WGL checker decides the history against the
// machine's sequential model. Any failure prints the seed for byte-for-byte
// replay (CHAOS_SEED overrides it).

// crashRestart stops a node like a killed process and restarts it over the
// same store. Worlds with a newStore factory (durable backends) close and
// reopen the store from its directory — a true recovery; in-memory worlds
// keep the store object, modeling a crash with surviving durable state. A
// graceful stop on a kept store loses nothing, though: with powerLoss set the
// in-memory store first stops taking writes and forgets everything that was
// staged and never synced, the node is stopped after that, and the restart
// recovers from what a machine that lost power would find.
func (w *world) crashRestart(id types.NodeID, factory statemachine.Factory) *Node {
	w.t.Helper()
	w.mu.Lock()
	mem, _ := w.stores[id].(*storage.MemStore)
	w.mu.Unlock()
	if !w.powerLoss {
		mem = nil
	}
	if n := w.node(id); n != nil {
		if mem != nil {
			mem.PowerLoss()
		}
		n.Stop()
		w.mu.Lock()
		delete(w.nodes, id)
		w.mu.Unlock()
		w.net.Endpoint(id).Resume()
	}
	if mem != nil {
		mem.Reopen()
	}
	if w.newStore != nil {
		w.dropStore(id)
	}
	n := w.startNode(id, factory)
	if err := n.Start(); err != nil {
		w.t.Fatal(err)
	}
	return n
}

// linCluster adapts a test world to the nemesis.Cluster fault surface.
type linCluster struct {
	w       *world
	pool    []types.NodeID
	factory statemachine.Factory
}

func (c *linCluster) Partition(sides ...[]types.NodeID) { c.w.net.Partition(sides...) }
func (c *linCluster) Isolate(id types.NodeID)           { c.w.net.Isolate(id) }
func (c *linCluster) Heal()                             { c.w.net.HealAll() }

func (c *linCluster) CrashRestart(ctx context.Context, id types.NodeID) error {
	c.w.crashRestart(id, c.factory)
	return nil
}

func (c *linCluster) Reconfigure(ctx context.Context, members []types.NodeID) error {
	var lastErr error = ErrNotServing
	for _, id := range c.pool {
		node := c.w.node(id)
		if node == nil || !node.Serving() {
			continue
		}
		attempt, cancel := context.WithTimeout(ctx, 8*time.Second)
		_, err := node.Reconfigure(attempt, members)
		cancel()
		if err == nil {
			return nil
		}
		lastErr = err
	}
	return lastErr
}

func (c *linCluster) Leader() types.NodeID {
	for _, id := range c.pool {
		node := c.w.node(id)
		if node == nil || !node.Serving() {
			continue
		}
		if lead := node.LeaderHint(); lead != "" {
			return lead
		}
	}
	return ""
}

// linWorkload pairs a machine with its sequential model and an op generator.
type linWorkload struct {
	name    string
	factory statemachine.Factory
	model   func() lincheck.Model
	setup   [][]byte // admin ops applied before load starts
	genOp   func(rng *rand.Rand) []byte
}

func kvWorkload() linWorkload {
	vals := make([][]byte, 6)
	for i := range vals {
		vals[i] = []byte(fmt.Sprintf("v%d", i))
	}
	return linWorkload{
		name:    "kv",
		factory: statemachine.NewKVMachine,
		model:   lincheck.RegisterModel,
		genOp: func(rng *rand.Rand) []byte {
			key := fmt.Sprintf("k%d", rng.Intn(8))
			switch rng.Intn(10) {
			case 0, 1, 2:
				return statemachine.EncodePut(key, vals[rng.Intn(len(vals))])
			case 3, 4, 5:
				return statemachine.EncodeGet(key)
			case 6:
				return statemachine.EncodeDelete(key)
			case 7, 8:
				return statemachine.EncodeAppend(key, []byte{byte('a' + rng.Intn(4))})
			default:
				return statemachine.EncodeCAS(key, vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))])
			}
		},
	}
}

// kvReadHeavyWorkload is the fast-path stressor: ~90% of generated ops are
// Gets, so nearly all load rides the read-index path while the remaining
// writes keep the register model moving.
// Linearizability violations here are exactly the stale-read bugs the wedge
// fence and read-index confirmation exist to prevent.
func kvReadHeavyWorkload() linWorkload {
	vals := make([][]byte, 6)
	for i := range vals {
		vals[i] = []byte(fmt.Sprintf("v%d", i))
	}
	return linWorkload{
		name:    "kv-read-heavy",
		factory: statemachine.NewKVMachine,
		model:   lincheck.RegisterModel,
		genOp: func(rng *rand.Rand) []byte {
			key := fmt.Sprintf("k%d", rng.Intn(8))
			if rng.Intn(10) != 0 {
				return statemachine.EncodeGet(key)
			}
			switch rng.Intn(3) {
			case 0:
				return statemachine.EncodePut(key, vals[rng.Intn(len(vals))])
			case 1:
				return statemachine.EncodeAppend(key, []byte{byte('a' + rng.Intn(4))})
			default:
				return statemachine.EncodeDelete(key)
			}
		},
	}
}

// kvWriteHeavyWorkload is the apply-stage stressor: ~90% of generated ops
// mutate state (Put/Append/Delete/CAS across 64 keys), so decided batches are
// long runs of writes that the apply stage executes segment by segment. The
// remaining Gets keep read-after-write ordering observable, so an apply
// stage that released a client reply before its command was applied, or
// advanced the read cursor past a half-applied segment, shows up as a
// linearizability counterexample.
func kvWriteHeavyWorkload() linWorkload {
	vals := make([][]byte, 6)
	for i := range vals {
		vals[i] = []byte(fmt.Sprintf("v%d", i))
	}
	return linWorkload{
		name:    "kv-write-heavy",
		factory: statemachine.NewKVMachine,
		model:   lincheck.RegisterModel,
		genOp: func(rng *rand.Rand) []byte {
			key := fmt.Sprintf("k%d", rng.Intn(64))
			if rng.Intn(10) == 0 {
				return statemachine.EncodeGet(key)
			}
			switch rng.Intn(4) {
			case 0:
				return statemachine.EncodePut(key, vals[rng.Intn(len(vals))])
			case 1:
				return statemachine.EncodeAppend(key, []byte{byte('a' + rng.Intn(4))})
			case 2:
				return statemachine.EncodeDelete(key)
			default:
				return statemachine.EncodeCAS(key, vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))])
			}
		},
	}
}

// bankWriteHeavyWorkload skews the bank toward transfers and deposits, so
// decided batches are dense with two-account writes; the Total reads assert
// conservation across them and across every wedge snapshot.
func bankWriteHeavyWorkload() linWorkload {
	accounts := []string{"a", "b", "c"}
	return linWorkload{
		name:    "bank-write-heavy",
		factory: statemachine.NewBankMachine,
		model:   lincheck.BankModel,
		setup: [][]byte{
			statemachine.EncodeOpen("a", 100),
			statemachine.EncodeOpen("b", 100),
			statemachine.EncodeOpen("c", 100),
		},
		genOp: func(rng *rand.Rand) []byte {
			switch rng.Intn(10) {
			case 0:
				return statemachine.EncodeBalance(accounts[rng.Intn(3)])
			case 1:
				return statemachine.EncodeTotal()
			case 2, 3, 4:
				return statemachine.EncodeDeposit(accounts[rng.Intn(3)], uint64(1+rng.Intn(3)))
			default:
				return statemachine.EncodeTransfer(accounts[rng.Intn(3)], accounts[rng.Intn(3)], uint64(1+rng.Intn(4)))
			}
		},
	}
}

func counterWorkload() linWorkload {
	return linWorkload{
		name:    "counter",
		factory: statemachine.NewCounterMachine,
		model:   lincheck.CounterModel,
		genOp: func(rng *rand.Rand) []byte {
			switch rng.Intn(4) {
			case 0:
				return statemachine.EncodeCounterGet()
			default:
				return statemachine.EncodeAdd(uint64(1 + rng.Intn(3)))
			}
		},
	}
}

func bankWorkload() linWorkload {
	accounts := []string{"a", "b", "c"}
	return linWorkload{
		name:    "bank",
		factory: statemachine.NewBankMachine,
		model:   lincheck.BankModel,
		setup: [][]byte{
			statemachine.EncodeOpen("a", 100),
			statemachine.EncodeOpen("b", 100),
			statemachine.EncodeOpen("c", 100),
		},
		genOp: func(rng *rand.Rand) []byte {
			switch rng.Intn(6) {
			case 0:
				return statemachine.EncodeBalance(accounts[rng.Intn(3)])
			case 1:
				return statemachine.EncodeTotal()
			case 2:
				return statemachine.EncodeDeposit(accounts[rng.Intn(3)], uint64(1+rng.Intn(3)))
			default:
				return statemachine.EncodeTransfer(accounts[rng.Intn(3)], accounts[rng.Intn(3)], uint64(1+rng.Intn(4)))
			}
		},
	}
}

// linRun parameterizes one workload × nemesis × seed cell.
type linRun struct {
	workload     linWorkload
	kinds        []nemesis.Kind
	seed         int64
	clients      int
	steps        int // nemesis schedule length
	minOk        int // keep loading until this many acked ops (0 = schedule only)
	minReconfigs int // drive extra reconfigurations until this count
	useWAL       bool
	powerLoss    bool // crash-restarts drop whatever the (in-memory) store had not synced
	checkBudget  time.Duration
	spec         SpecMode // 0 keeps the node default (SpecOn); SpecOff pins the wait-for-transfer ablation
	logBound     int      // log bound override (0 keeps the 4096 default)
	ideal        bool     // run over the ideal engine (ideal_test.go) instead of static Paxos
}

// onBothEngines runs one cell over static Paxos and over the ideal engine; a
// failure only in the ideal arm is a composition bug, not an engine bug.
func onBothEngines(t *testing.T, run linRun) {
	paxosRun, idealRun := run, run
	idealRun.ideal = true
	t.Run("paxos", func(t *testing.T) { runLin(t, paxosRun) })
	t.Run("ideal", func(t *testing.T) { runLin(t, idealRun) })
}

func runLin(t *testing.T, run linRun) {
	seed := chaosSeed(t, run.seed)
	w := newWorld(t, transport.Options{
		BaseLatency: 100 * time.Microsecond,
		Jitter:      200 * time.Microsecond,
		LossRate:    0.01,
		Seed:        seed,
	})
	if run.spec != SpecDefault {
		w.opts.SpeculativeStart = run.spec
	}
	if run.logBound != 0 {
		w.opts.logBound = run.logBound
	}
	if run.ideal {
		w.opts.engine = newIdealEngines(seed)
	}
	w.powerLoss = run.powerLoss
	if run.useWAL {
		dir := t.TempDir()
		w.newStore = func(id types.NodeID) storage.Store {
			st, err := storage.OpenWALStore(filepath.Join(dir, string(id)), storage.WALStoreOptions{})
			if err != nil {
				t.Fatalf("open wal store for %s: %v", id, err)
			}
			return st
		}
	}
	pool := []types.NodeID{"n1", "n2", "n3", "n4", "n5"}
	w.bootstrap(run.workload.factory, pool[0], pool[1], pool[2])
	w.waitServing(pool[0], pool[1], pool[2])
	for _, id := range pool[3:] {
		n := w.startNode(id, run.workload.factory)
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	// Setup ops go through the recorder too: the checker starts from the
	// model's empty initial state, so account creation must be part of the
	// history it linearizes.
	rec := history.New()
	for i, op := range run.workload.setup {
		h := rec.Invoke("admin", uint64(i+1), op)
		rec.Ok(h, w.submit("n1", "admin", uint64(i+1), op))
	}

	// Clients: each retries its current (client, seq) until acknowledged —
	// the recorder keeps the whole retry span as one pending operation, so
	// an op applied during a timeout window is still checkable.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < run.clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*997 + int64(g)))
			client := types.NodeID(fmt.Sprintf("lc%d", g))
			seq := uint64(1)
			op := run.workload.genOp(rng)
			h := rec.Invoke(client, seq, op)
			for {
				select {
				case <-stop:
					return
				default:
				}
				node := w.node(pool[rng.Intn(len(pool))])
				if node == nil || !node.Serving() {
					time.Sleep(2 * time.Millisecond)
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
				reply, err := node.Submit(ctx, client, seq, op)
				cancel()
				if err != nil {
					continue // retry same seq; at-most-once makes this safe
				}
				rec.Ok(h, reply)
				seq++
				op = run.workload.genOp(rng)
				h = rec.Invoke(client, seq, op)
			}
		}(g)
	}

	cluster := &linCluster{w: w, pool: pool, factory: run.workload.factory}
	schedule := nemesis.Generate(seed, nemesis.Profile{
		Pool:  pool,
		Steps: run.steps,
		Kinds: run.kinds,
	})
	for _, step := range schedule {
		t.Logf("nemesis: %s", step)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	stats := nemesis.Execute(ctx, cluster, schedule)

	// Guarantee the reconfiguration floor regardless of what the random
	// schedule drew.
	rotations := [][]types.NodeID{pool[:3], pool[:5], pool[1:5], pool[:4]}
	for i := 0; stats.Reconfigs < run.minReconfigs && i < 20; i++ {
		if err := cluster.Reconfigure(ctx, rotations[i%len(rotations)]); err == nil {
			stats.Reconfigs++
		} else {
			t.Logf("floor reconfigure attempt %d: %v", i, err)
			time.Sleep(100 * time.Millisecond)
		}
	}
	if stats.Reconfigs < run.minReconfigs {
		for _, id := range pool {
			node := w.node(id)
			if node == nil {
				t.Logf("node %s: crashed/stopped", id)
				continue
			}
			node.inspect(func() {
				var engs []string
				for eid, run := range node.engines {
					p, es := run.eng.Progress(), run.eng.Counters()
					ldr, isLdr := run.eng.Leader()
					engs = append(engs, fmt.Sprintf("cfg%d:{installed=%v leader=%s(%v) delivered=%d dropped=%d}",
						eid, run.installed, ldr, isLdr, p.Delivered, es.DroppedInbound))
				}
				t.Logf("node %s: curID=%d init=%v applied=%d mailbox=%d pending=%d waiters=%d engines=%v stats={applied:%d viol:%d stale:%d wedges:%d resub:%d}",
					id, node.curID, node.initialized, node.appliedSlot, node.mailbox.Len(),
					len(node.pending), len(node.readWaiters), engs,
					node.stats.Applied, node.stats.InvariantViolations, node.stats.StaleJumps,
					node.stats.Wedges, node.stats.Resubmits)
			})
		}
		t.Fatalf("only %d reconfigurations (need %d); seed %d", stats.Reconfigs, run.minReconfigs, seed)
	}

	// Keep the load running until the op floor is met.
	if run.minOk > 0 {
		floor := time.Now().Add(60 * time.Second)
		for {
			ok, _, _ := rec.Counts()
			if ok >= run.minOk || time.Now().After(floor) {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	w.net.HealAll()
	close(stop)
	wg.Wait()
	rec.Drain()

	ops := rec.Ops()
	okN, infoN, failN := rec.Counts()
	t.Logf("history: %d ops (%d ok, %d info, %d fail); faults: %s", len(ops), okN, infoN, failN, stats)
	if run.minOk > 0 && okN < run.minOk {
		t.Fatalf("only %d acknowledged ops (wanted >= %d); seed %d", okN, run.minOk, seed)
	}
	budget := run.checkBudget
	if budget == 0 {
		budget = 25 * time.Second
	}
	res := lincheck.CheckHistory(run.workload.model(), ops, lincheck.Options{Timeout: budget})
	t.Logf("lincheck: %d ops in %d partition(s) checked in %s", res.Ops, res.Partitions, res.Elapsed)
	if res.Unknown {
		t.Fatalf("checker exceeded its %s budget (seed %d)", budget, seed)
	}
	if !res.Ok {
		t.Fatalf("history is NOT linearizable (seed %d):\n%s", seed, res.Counterexample)
	}
	if run.logBound != 0 {
		// Let every run the load left behind linger out and be discarded.
		time.Sleep(lingerOld + 5*retryInterval)
	}
	var boundWedges, discarded, jumps int64
	for _, id := range pool {
		if n := w.node(id); n != nil {
			s := n.Stats()
			boundWedges, discarded, jumps = boundWedges+s.CheckpointsPublished, discarded+s.TruncatedSlots, jumps+s.StaleJumps
		}
	}
	t.Logf("compaction: bound wedges=%d discarded slots=%d; stale jumps=%d", boundWedges, discarded, jumps)
	if run.logBound != 0 {
		// The cell only means something if compaction actually ran under the
		// fault schedule: with a tiny bound and hundreds of acknowledged ops,
		// the surviving nodes must have wedged at the bound and discarded
		// retired logs. (Crash-restarted nodes restart their in-memory
		// counters, so this sums whatever the current incarnations saw —
		// still nonzero under continuous load.)
		if boundWedges == 0 {
			t.Fatalf("compaction churn cell ran with no wedge at the log bound; seed %d", seed)
		}
		if discarded == 0 {
			t.Fatalf("compaction churn cell discarded no retired log; seed %d", seed)
		}
	}
	if f, ok := w.opts.engine.(*idealEngines); ok {
		t.Logf("ideal adversary: %d wedges held back", f.held.Load())
	}
	w.checkNoViolations()
}

func TestLinearizabilityKVUnderPartitions(t *testing.T) {
	runLin(t, linRun{
		workload: kvWorkload(),
		kinds:    []nemesis.Kind{nemesis.KindPartition, nemesis.KindIsolate},
		seed:     101,
		clients:  4,
		steps:    6,
	})
}

func TestLinearizabilityCounterUnderCrashes(t *testing.T) {
	runLin(t, linRun{
		workload: counterWorkload(),
		kinds:    []nemesis.Kind{nemesis.KindCrashRestart, nemesis.KindLeaderKill},
		seed:     202,
		clients:  3,
		steps:    5,
	})
}

func TestLinearizabilityBankUnderReconfigChurn(t *testing.T) {
	onBothEngines(t, linRun{
		workload:     bankWorkload(),
		kinds:        []nemesis.Kind{nemesis.KindReconfigure, nemesis.KindPartition},
		seed:         303,
		clients:      3,
		steps:        6,
		minReconfigs: 1,
	})
}

func TestLinearizabilityWALCrashRestart(t *testing.T) {
	runLin(t, linRun{
		workload: counterWorkload(),
		kinds:    []nemesis.Kind{nemesis.KindCrashRestart, nemesis.KindReconfigure},
		seed:     404,
		clients:  3,
		steps:    5,
		useWAL:   true,
	})
}

// TestLinearizabilityPowerLossRestart is the crash-restart cell with crashes
// that lose data: a restarted node finds none of what its engines and its
// snapshot writer had staged behind a barrier that never came — accepted
// entries of the turn it died in, dec/ markers riding the next barrier, the
// chunks of a snapshot whose manifest was not written yet, the deletes of a
// retired log's discard (the log bound is a few dozen slots, so the run
// crosses many). Everything that was acknowledged to a client must still be
// there, once.
func TestLinearizabilityPowerLossRestart(t *testing.T) {
	runLin(t, linRun{
		workload:  counterWorkload(),
		kinds:     []nemesis.Kind{nemesis.KindCrashRestart, nemesis.KindLeaderKill, nemesis.KindReconfigure},
		seed:      505,
		clients:   3,
		steps:     8,
		powerLoss: true,
		logBound:  30,
	})
}

// TestLinearizabilityReadHeavyIndex drives the read-index fast path hard:
// 90% Gets against a cluster whose leader is repeatedly killed and whose
// links partition. Every fast read must still be linearizable — a read
// answered by a deposed leader that skipped its confirmation round would
// show up as a stale-read counterexample.
func TestLinearizabilityReadHeavyIndex(t *testing.T) {
	runLin(t, linRun{
		workload: kvReadHeavyWorkload(),
		kinds:    []nemesis.Kind{nemesis.KindLeaderKill, nemesis.KindPartition},
		seed:     606,
		clients:  4,
		steps:    6,
	})
}

// TestLinearizabilityReadHeavyIndexReconfig crosses the fast path with
// reconfiguration churn: wedge fencing must cut over reads to the successor
// configuration with no stale window.
func TestLinearizabilityReadHeavyIndexReconfig(t *testing.T) {
	runLin(t, linRun{
		workload:     kvReadHeavyWorkload(),
		kinds:        []nemesis.Kind{nemesis.KindReconfigure, nemesis.KindPartition},
		seed:         707,
		clients:      4,
		steps:        6,
		minReconfigs: 1,
	})
}

// TestLinearizabilityReadHeavyLeaderKillReconfig mixes the two events that
// depose a read-index leader — a leader kill and a reconfiguration — under
// the same read-heavy load. A kill leaves the old leader's probe rounds to
// fail and its reads to fall back to the log; a reconfiguration must fence
// the wedged configuration's reads before the successor takes a write.
func TestLinearizabilityReadHeavyLeaderKillReconfig(t *testing.T) {
	runLin(t, linRun{
		workload:     kvReadHeavyWorkload(),
		kinds:        []nemesis.Kind{nemesis.KindLeaderKill, nemesis.KindReconfigure},
		seed:         808,
		clients:      4,
		steps:        6,
		minReconfigs: 1,
	})
}

// TestLinearizabilityWriteHeavy is the apply-stage correctness run: a
// 90%-write KV load across 64 keys while the nemesis churns reconfigurations
// and crash-restarts nodes. Every reply released before its command was
// applied, and every decided segment surviving a wedge half-applied, would be
// a counterexample here.
func TestLinearizabilityWriteHeavy(t *testing.T) {
	runLin(t, linRun{
		workload:     kvWriteHeavyWorkload(),
		kinds:        []nemesis.Kind{nemesis.KindReconfigure, nemesis.KindCrashRestart},
		seed:         909,
		clients:      4,
		steps:        6,
		minReconfigs: 1,
	})
}

// TestLinearizabilityWriteHeavyBank runs the transfer-skewed bank under the
// same churn: the apply stage must finish every transfer before the wedge
// snapshot forks — conservation violations or stale Totals would fail the
// check.
func TestLinearizabilityWriteHeavyBank(t *testing.T) {
	runLin(t, linRun{
		workload:     bankWriteHeavyWorkload(),
		kinds:        []nemesis.Kind{nemesis.KindReconfigure, nemesis.KindCrashRestart},
		seed:         1010,
		clients:      4,
		steps:        6,
		minReconfigs: 1,
	})
}

// TestLinearizabilitySpeculativeReconfig is the speculative-start chaos run:
// reconfiguration churn plus crash-restarts with SpeculativeStart pinned on,
// so every joiner decides slots of the successor configuration while its
// snapshot is still streaming (and crash-restarted joiners replay those
// decisions from their durable records). Any decision applied before the
// install, any reply released before the apply point passed the snapshot's
// base index, or any double-apply after a crashed speculative phase is a
// linearizability counterexample here.
func TestLinearizabilitySpeculativeReconfig(t *testing.T) {
	onBothEngines(t, linRun{
		workload:     kvWorkload(),
		kinds:        []nemesis.Kind{nemesis.KindReconfigure, nemesis.KindCrashRestart},
		seed:         1212,
		clients:      4,
		steps:        6,
		minReconfigs: 2,
		spec:         SpecOn,
	})
}

// TestLinearizabilitySpeculativeReconfigBank runs the same speculative-start
// churn over the bank machine: transfers are cross-shard barriers and Totals
// assert conservation, so a joiner whose speculative decisions interleave
// wrongly with its snapshot install breaks conservation visibly.
func TestLinearizabilitySpeculativeReconfigBank(t *testing.T) {
	runLin(t, linRun{
		workload:     bankWorkload(),
		kinds:        []nemesis.Kind{nemesis.KindReconfigure, nemesis.KindCrashRestart, nemesis.KindPartition},
		seed:         1313,
		clients:      4,
		steps:        6,
		minReconfigs: 2,
		spec:         SpecOn,
	})
}

// TestLinearizabilityCompactionChurn crosses log compaction with the fault
// schedule: a 30-slot log bound keeps configurations wedging at the bound,
// user reconfigurations racing those wedges, and retired logs being
// discarded, while the nemesis reconfigures, crash-restarts and isolates
// nodes. An isolated or rebooted member that heals after the survivors have
// retired its configuration can only recover through a stale jump and a
// snapshot install — a double-applied prefix, an op lost across a bound
// wedge, or a reply served from a half-installed snapshot is a
// linearizability counterexample here.
func TestLinearizabilityCompactionChurn(t *testing.T) {
	onBothEngines(t, linRun{
		workload:     kvWorkload(),
		kinds:        []nemesis.Kind{nemesis.KindReconfigure, nemesis.KindCrashRestart, nemesis.KindIsolate},
		seed:         1414,
		clients:      4,
		steps:        6,
		minReconfigs: 1,
		logBound:     30,
	})
}

// TestLinearizabilityLarge is the acceptance run: a 5-node cluster under the
// full fault mix — partitions, crash-restarts and at least three
// reconfigurations — producing a 10k+-op KV history that must check in
// seconds. The race detector multiplies per-op cost, so the floor scales
// down under -race.
func TestLinearizabilityLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large linearizability run in -short mode")
	}
	minOk := 10000
	if raceEnabled {
		minOk = 2500
	}
	runLin(t, linRun{
		workload:     kvWorkload(),
		kinds:        nemesis.AllKinds,
		seed:         505,
		clients:      6,
		steps:        12,
		minOk:        minOk,
		minReconfigs: 3,
		checkBudget:  25 * time.Second,
	})
}
