package paxos

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// cutStore is a replica's disk with a fuse: armed with k, it lets k more
// staged operations through, treats them as having reached the platter, and
// cuts the power — that prefix is stable, whatever was staged behind it is
// gone, and every later write and Sync fails, so the replica, still running,
// can neither persist nor (its barrier failing) assert anything more. Staged
// operations keep the order they were issued in, on every store the engine
// runs on, so "every prefix" is every state a crash can leave.
type cutStore struct {
	*storage.MemStore
	mu     sync.Mutex
	armed  bool
	left   int
	staged []string // operations staged since arm, in order
}

func (c *cutStore) arm(k int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed, c.left, c.staged = true, k, nil
	c.blowIfDue()
}

// blowIfDue cuts the power once the fuse has run down. Caller holds mu.
func (c *cutStore) blowIfDue() {
	if c.armed && c.left == 0 {
		c.armed = false
		_ = c.MemStore.Sync()
		c.MemStore.PowerLoss()
	}
}

func (c *cutStore) stage(op string, do func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := do()
	if err == nil {
		c.staged = append(c.staged, op)
		if c.armed {
			c.left--
			c.blowIfDue()
		}
	}
	return err
}

func (c *cutStore) SetBuffered(key string, value []byte) error {
	return c.stage("set "+key, func() error { return c.MemStore.SetBuffered(key, value) })
}

func (c *cutStore) DeleteBuffered(key string) error {
	return c.stage("delete "+key, func() error { return c.MemStore.DeleteBuffered(key) })
}

// streamKeys returns the keys the store holds under prefix.
func streamKeys(t *testing.T, st storage.Store, prefix string) map[string]bool {
	t.Helper()
	kvs, err := st.Scan(prefix)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool, len(kvs))
	for _, kv := range kvs {
		out[kv.Key] = true
	}
	return out
}

// burst runs step as one loop turn of an unstarted replica: writes staged,
// frames and decisions collected, one barrier at the end.
func burst(r *Replica, step func()) {
	step()
	r.endBurst()
}

// decideAlone makes r, the only member of its configuration, decide n
// commands, one slot each, every turn made stable.
func decideAlone(r *Replica, n int) {
	r.role = roleLeader
	r.ballot = types.Ballot{Round: 1, Leader: r.self}
	for i := 1; i <= n; i++ {
		burst(r, func() { turn(r, appCmd("c", uint64(i))) })
	}
}

// TestCrashPoints is the crash-point table (ROADMAP item 8(b)): each row is a
// step that stages writes behind one barrier; the power is cut behind every
// prefix of them in turn, and what the store keeps must be a state the
// protocol could have reached. A row is a set-up, the step, and an invariant
// over the store and what left the replica.
func TestCrashPoints(t *testing.T) {
	solo := types.MustConfig(1, "n1")
	trio := types.MustConfig(1, "n1", "n2", "n3")
	newBallot := types.Ballot{Round: 5, Leader: "n2"}

	rows := []struct {
		name  string
		cfg   types.Config
		setup func(r *Replica)
		// step runs as one turn of the unstarted replica, then its barrier;
		// it stages at least staged writes.
		step   func(r *Replica, st *cutStore)
		staged int
		check  func(t *testing.T, before map[string]bool, st *cutStore, promised func() bool)
	}{
		{
			// A retired configuration's log goes whole: the composition stops
			// the engine, stages every delete Discard asks for and takes one
			// barrier. Whatever prefix survives, nothing comes back that was
			// not there, the other namespaces are untouched, and discarding
			// again after the reboot finishes the job. (A node never builds a
			// replica over a discarded stream again; reconfig's
			// TestDiscardPowerCutSweep holds that side.)
			name:  "discard",
			cfg:   solo,
			setup: func(r *Replica) { decideAlone(r, 10) },
			step: func(r *Replica, st *cutStore) {
				if err := (factory{}).Discard(st, uint64(r.cfg.ID)); err != nil {
					return // the cut: later deletes fail, as on a dead disk
				}
				_ = st.Sync()
			},
			staged: 20, // an accepted and a decided record per slot
			check: func(t *testing.T, before map[string]bool, st *cutStore, _ func() bool) {
				after := streamKeys(t, st, "pxs/1/")
				for k := range after {
					if !before[k] {
						t.Fatalf("%s appeared in a discard", k)
					}
				}
				if _, ok, _ := st.Get("pxs/2/promised"); !ok {
					t.Fatal("the discard of stream 1 took stream 2's promise")
				}
				if err := (factory{}).Discard(st, 1); err != nil {
					t.Fatal(err)
				}
				if err := st.Sync(); err != nil {
					t.Fatal(err)
				}
				if left := streamKeys(t, st, "pxs/1/"); len(left) != 0 {
					t.Fatalf("a second discard left %d keys", len(left))
				}
			},
		},
		{
			// An acceptor promises a higher ballot: one staged record, and the
			// Promise waits for the barrier. A Promise that reached n2 is one
			// the rebooted acceptor still keeps.
			name: "promise",
			cfg:  trio,
			step: func(r *Replica, _ *cutStore) {
				r.onPrepare("n2", prepareMsg{Ballot: newBallot, From: 1})
			},
			staged: 1,
			check: func(t *testing.T, _ map[string]bool, st *cutStore, promised func() bool) {
				net := transport.NewNetwork(transport.Options{})
				defer net.Close()
				rec, err := New(trio, "n1", net.Endpoint("n1"), st, 1, fastOpts(0))
				if err != nil {
					t.Fatalf("recovery: %v", err)
				}
				if rec.promised.Less(newBallot) && promised() {
					t.Fatalf("n2 holds a promise for %v; the rebooted acceptor promised only %v", newBallot, rec.promised)
				}
				if v := rec.Stats().InvariantViolations; v != 0 {
					t.Fatalf("%d invariant violations in recovery", v)
				}
			},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			// k staged writes of the step reach the disk; k = total is the
			// crash between the last write and the barrier, total+1 no crash.
			total := countStaged(t, row.cfg, row.setup, row.step, row.staged)
			for k := 0; k <= total+1; k++ {
				st := &cutStore{MemStore: storage.NewMem()}
				if err := st.MemStore.Set("pxs/2/promised", []byte{1}); err != nil {
					t.Fatal(err)
				}
				net := transport.NewNetwork(transport.Options{})
				var mu sync.Mutex
				got := false
				net.Endpoint("n2").Handle(1, func(_ types.NodeID, _ uint64, kind uint8, payload []byte) {
					if pm, err := decodePromise(payload); kind == KindPromise && err == nil && pm.OK {
						mu.Lock()
						got = true
						mu.Unlock()
					}
				})
				r, err := New(row.cfg, "n1", net.Endpoint("n1"), st, 1, fastOpts(0))
				if err != nil {
					t.Fatal(err)
				}
				if row.setup != nil {
					row.setup(r)
				}
				before := streamKeys(t, st, "pxs/")
				st.arm(k)
				burst(r, func() { row.step(r, st) })
				promised := func() bool { mu.Lock(); defer mu.Unlock(); return got }
				// Frames cross the simulated fabric on its own goroutines: a
				// Promise that left the replica is waited for, so the check
				// always sees it.
				if net.Stats().PerKind[KindPromise].Messages > 0 {
					for deadline := time.Now().Add(5 * time.Second); !promised(); time.Sleep(time.Millisecond) {
						if time.Now().After(deadline) {
							t.Fatal("the replica sent a Promise that never reached n2")
						}
					}
				}
				net.Close()

				st.mu.Lock()
				st.armed = false
				st.mu.Unlock()
				st.MemStore.PowerLoss()
				st.MemStore.Reopen()
				t.Run(fmt.Sprintf("power cut behind write %d of %d", k, total), func(t *testing.T) {
					row.check(t, before, st, promised)
				})
			}
		})
	}
}

// countStaged runs setup and step on a store that never loses power and
// returns how many writes the step staged, failing when they are fewer than
// least.
func countStaged(t *testing.T, cfg types.Config, setup func(*Replica), step func(*Replica, *cutStore), least int) int {
	t.Helper()
	st := &cutStore{MemStore: storage.NewMem()}
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	r, err := New(cfg, "n1", net.Endpoint("n1"), st, uint64(cfg.ID), fastOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(r)
	}
	st.arm(-1)
	burst(r, func() { step(r, st) })
	if len(st.staged) < least {
		t.Fatalf("the step staged %d writes (%v), want at least %d", len(st.staged), st.staged, least)
	}
	return len(st.staged)
}
