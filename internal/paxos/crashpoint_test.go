package paxos

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

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

// restart is the machine coming back: the store forgets what was never
// synced and a new replica recovers from the rest.
func (c *cutStore) restart(t *testing.T, cfg types.Config) *Replica {
	t.Helper()
	c.mu.Lock()
	c.armed = false
	c.mu.Unlock()
	c.MemStore.PowerLoss()
	c.MemStore.Reopen()
	net := transport.NewNetwork(transport.Options{})
	t.Cleanup(net.Close)
	r, err := New(cfg, "n1", net.Endpoint("n1"), c, uint64(cfg.ID), fastOpts(0))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	return r
}

// logSlots returns the slots that have an acc/ or a dec/ record in the store.
func logSlots(t *testing.T, st storage.Store, r *Replica) map[types.Slot]bool {
	t.Helper()
	out := make(map[types.Slot]bool)
	for _, dir := range []string{"acc/", "dec/"} {
		kvs, err := st.Scan(r.prefix + dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range kvs {
			n, err := strconv.ParseUint(strings.TrimPrefix(kv.Key, r.prefix+dir), 10, 64)
			if err != nil {
				t.Fatalf("key %q: %v", kv.Key, err)
			}
			out[types.Slot(n)] = true
		}
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

// TestCrashPoints is the crash-point table (ROADMAP item 3(b)): each row is a
// step that stages several writes behind one barrier; the power is cut behind
// every prefix of them in turn, and the replica recovered from what is left
// must be one the protocol could have reached. A row is a set-up, the step
// and an invariant over the recovered replica, so the promise and manifest
// rows can join the truncation rows here.
func TestCrashPoints(t *testing.T) {
	solo := types.MustConfig(1, "n1")
	trio := types.MustConfig(1, "n1", "n2", "n3")

	// released is the invariant of a log release: whatever the crash kept,
	// the floor the replica recovers with is the old one or the new one;
	// delivery resumes right above it; nothing at or below it is left in the
	// store once New has returned; and nothing above it is missing — what is
	// gone is under a durable floor, never a hole under a lost one.
	released := func(oldFloor, newFloor types.Slot) func(*testing.T, map[types.Slot]bool, *cutStore, *Replica) {
		return func(t *testing.T, before map[types.Slot]bool, st *cutStore, r *Replica) {
			floor := r.truncatedBelow
			if floor != oldFloor && floor != newFloor {
				t.Fatalf("recovered floor %d, want %d or %d", floor, oldFloor, newFloor)
			}
			if r.deliverNext != floor+1 {
				t.Fatalf("deliverNext %d with floor %d", r.deliverNext, floor)
			}
			after := logSlots(t, st, r)
			for slot := range after {
				if slot <= floor {
					t.Fatalf("slot %d still has a record at or below the recovered floor %d", slot, floor)
				}
			}
			for slot := range before {
				if slot > floor && !after[slot] {
					t.Fatalf("slot %d lost its records above the recovered floor %d", slot, floor)
				}
			}
			if got, err := TruncatedFloor(st, uint64(r.cfg.ID)); err != nil || got != floor {
				t.Fatalf("TruncatedFloor = %d, %v; the replica recovered %d", got, err, floor)
			}
		}
	}

	rows := []struct {
		name  string
		cfg   types.Config
		setup func(r *Replica)
		step  func(r *Replica)
		check func(t *testing.T, before map[types.Slot]bool, st *cutStore, r *Replica)
	}{
		{
			name:  "truncation",
			cfg:   solo,
			setup: func(r *Replica) { decideAlone(r, 10) },
			step:  func(r *Replica) { r.truncateBelow(6) },
			check: func(t *testing.T, before map[types.Slot]bool, st *cutStore, r *Replica) {
				released(0, 6)(t, before, st, r)
				// Everything above the floor is decided and contiguous: the
				// recovered replica redelivers through slot 10.
				r.deliverReady()
				if r.deliverNext != 11 {
					t.Fatalf("redelivery stops at slot %d of 10 (floor %d)", r.deliverNext-1, r.truncatedBelow)
				}
			},
		},
		{
			name:  "second truncation",
			cfg:   solo,
			setup: func(r *Replica) { decideAlone(r, 10); burst(r, func() { r.truncateBelow(3) }) },
			step:  func(r *Replica) { r.truncateBelow(8) },
			check: released(3, 8),
		},
		{
			// A laggard holding decided slots 2..6 behind a hole at 1 installs
			// a checkpoint with base 4.
			name: "checkpoint install",
			cfg:  trio,
			setup: func(r *Replica) {
				b := types.Ballot{Round: 1, Leader: "n2"}
				for slot := types.Slot(2); slot <= 6; slot++ {
					burst(r, func() {
						r.acceptAccept(proposal(acceptedEntry{Ballot: b, Slot: slot, Cmd: appCmd("c", uint64(slot))}))
						r.learnAccepted(slot, b)
					})
				}
			},
			step:  func(r *Replica) { r.skipTo(4) },
			check: released(0, 4),
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			// k staged writes of the step reach the disk; k = total is the
			// crash between the last write and the barrier, total+1 no crash.
			total := countStaged(t, row.cfg, row.setup, row.step)
			for k := 0; k <= total+1; k++ {
				st := &cutStore{MemStore: storage.NewMem()}
				net := transport.NewNetwork(transport.Options{})
				r, err := New(row.cfg, "n1", net.Endpoint("n1"), st, uint64(row.cfg.ID), fastOpts(0))
				if err != nil {
					t.Fatal(err)
				}
				row.setup(r)
				before := logSlots(t, st, r)
				st.arm(k)
				burst(r, func() { row.step(r) })
				net.Close()

				rec := st.restart(t, row.cfg)
				t.Run(fmt.Sprintf("power cut behind write %d of %d", k, total), func(t *testing.T) {
					row.check(t, before, st, rec)
					if v := rec.Stats().InvariantViolations; v != 0 {
						t.Fatalf("%d invariant violations in recovery", v)
					}
				})
			}
		})
	}
}

// countStaged runs setup and step on a store that never loses power and
// returns how many writes the step staged.
func countStaged(t *testing.T, cfg types.Config, setup, step func(*Replica)) int {
	t.Helper()
	st := &cutStore{MemStore: storage.NewMem()}
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	r, err := New(cfg, "n1", net.Endpoint("n1"), st, uint64(cfg.ID), fastOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	setup(r)
	st.arm(-1)
	burst(r, func() { step(r) })
	if len(st.staged) < 3 {
		t.Fatalf("the step staged %d writes (%v); nothing to cut between", len(st.staged), st.staged)
	}
	return len(st.staged)
}
