package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/statemachine"
	"repro/internal/transport"
	"repro/internal/types"
)

func groupManager(t *testing.T, cfg Config) *GroupManager {
	t.Helper()
	cfg.Node = FastOptions()
	if cfg.Factory == nil {
		cfg.Factory = statemachine.NewKVMachine
	}
	if !cfg.TCP {
		cfg.Transport.BaseLatency = 100 * time.Microsecond
	}
	m := NewGroupManager(cfg)
	t.Cleanup(m.Close)
	return m
}

func groupCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func mustSubmit(t *testing.T, ctx context.Context, m *GroupManager, gid types.GroupID, client types.NodeID, seq uint64, op []byte) []byte {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		reply, err := m.Submit(ctx, gid, client, seq, op)
		if err == nil {
			return reply
		}
		if time.Now().After(deadline) {
			t.Fatalf("submit to group %d: %v", gid, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestGroupManagerIsolatedKeyspaces: three groups on the same three
// processes hold independent keyspaces — the same key carries a different
// value per group, over one shared store and one endpoint per process.
func TestGroupManagerIsolatedKeyspaces(t *testing.T) {
	m := groupManager(t, Config{})
	ctx := groupCtx(t)
	procs := []types.NodeID{"p1", "p2", "p3"}
	for gid := types.GroupID(1); gid <= 3; gid++ {
		if err := m.CreateGroup(gid, procs, nil); err != nil {
			t.Fatal(err)
		}
		if err := m.WaitGroupServing(ctx, gid); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(m.Processes()); got != 3 {
		t.Fatalf("%d processes registered, want 3", got)
	}
	for gid := types.GroupID(1); gid <= 3; gid++ {
		val := fmt.Sprintf("group-%d", gid)
		reply := mustSubmit(t, ctx, m, gid, "c", 1, statemachine.EncodePut("shared-key", []byte(val)))
		if statemachine.ReplyStatus(reply) != statemachine.StatusOK {
			t.Fatalf("group %d put: %v", gid, statemachine.ReplyStatus(reply))
		}
	}
	for gid := types.GroupID(1); gid <= 3; gid++ {
		reply := mustSubmit(t, ctx, m, gid, "c", 2, statemachine.EncodeGet("shared-key"))
		want := fmt.Sprintf("group-%d", gid)
		if got := string(statemachine.ReplyPayload(reply)); got != want {
			t.Fatalf("group %d reads %q, want %q (cross-group keyspace leak)", gid, got, want)
		}
	}
	if m.TotalViolations() != 0 {
		t.Fatal("invariant violations")
	}
	// Per-group stats see per-group applies.
	for _, gs := range m.PerGroupStats() {
		if gs.Applied == 0 {
			t.Fatalf("group %d reports zero applies: %+v", gs.Group, gs)
		}
	}
}

// TestGroupManagerSharedWALCrashRestart: two groups share each process's WAL;
// crashing and restarting a process recovers both groups' replicas from the
// shared log, and both keyspaces stay intact and disjoint.
func TestGroupManagerSharedWALCrashRestart(t *testing.T) {
	m := groupManager(t, Config{Storage: "wal", SyncWrites: true})
	ctx := groupCtx(t)
	procs := []types.NodeID{"p1", "p2", "p3"}
	for gid := types.GroupID(1); gid <= 2; gid++ {
		if err := m.CreateGroup(gid, procs, nil); err != nil {
			t.Fatal(err)
		}
		if err := m.WaitGroupServing(ctx, gid); err != nil {
			t.Fatal(err)
		}
	}
	for gid := types.GroupID(1); gid <= 2; gid++ {
		mustSubmit(t, ctx, m, gid, "c", 1, statemachine.EncodePut("k", []byte(fmt.Sprintf("pre-crash-%d", gid))))
	}

	m.CrashProcess("p2")
	// Both groups keep committing on the surviving majority.
	for gid := types.GroupID(1); gid <= 2; gid++ {
		mustSubmit(t, ctx, m, gid, "c", 2, statemachine.EncodePut("k2", []byte(fmt.Sprintf("during-crash-%d", gid))))
	}
	if err := m.RestartProcess("p2"); err != nil {
		t.Fatal(err)
	}
	// The restarted process hosts a replica of every group again.
	if m.Node(1, "p2") == nil || m.Node(2, "p2") == nil {
		t.Fatal("restart did not recreate replicas for both groups")
	}
	for gid := types.GroupID(1); gid <= 2; gid++ {
		reply := mustSubmit(t, ctx, m, gid, "c", 3, statemachine.EncodeGet("k"))
		if got, want := string(statemachine.ReplyPayload(reply)), fmt.Sprintf("pre-crash-%d", gid); got != want {
			t.Fatalf("group %d k = %q, want %q", gid, got, want)
		}
		reply = mustSubmit(t, ctx, m, gid, "c", 4, statemachine.EncodeGet("k2"))
		if got, want := string(statemachine.ReplyPayload(reply)), fmt.Sprintf("during-crash-%d", gid); got != want {
			t.Fatalf("group %d k2 = %q, want %q", gid, got, want)
		}
	}
	if m.TotalViolations() != 0 {
		t.Fatal("invariant violations")
	}
}

// TestGroupManagerReconfigureGroup migrates one group onto three fresh
// processes while another group stays put: state follows the replicas via
// snapshot transfer, the other group is untouched.
func TestGroupManagerReconfigureGroup(t *testing.T) {
	m := groupManager(t, Config{})
	ctx := groupCtx(t)
	old := []types.NodeID{"p1", "p2", "p3"}
	for gid := types.GroupID(1); gid <= 2; gid++ {
		if err := m.CreateGroup(gid, old, nil); err != nil {
			t.Fatal(err)
		}
		if err := m.WaitGroupServing(ctx, gid); err != nil {
			t.Fatal(err)
		}
		mustSubmit(t, ctx, m, gid, "c", 1, statemachine.EncodePut("home", []byte(fmt.Sprintf("g%d", gid))))
	}

	next := []types.NodeID{"q1", "q2", "q3"}
	cfg, err := m.ReconfigureGroup(ctx, 1, next)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ID < 2 {
		t.Fatalf("reconfigured config ID %d", cfg.ID)
	}
	if err := m.WaitGroupServing(ctx, 1); err != nil {
		t.Fatal(err)
	}
	// Group 1's state moved with it.
	reply := mustSubmit(t, ctx, m, 1, "c", 2, statemachine.EncodeGet("home"))
	if got := string(statemachine.ReplyPayload(reply)); got != "g1" {
		t.Fatalf("migrated group reads %q", got)
	}
	members := m.GroupMembers(1)
	if len(members) != 3 {
		t.Fatalf("group 1 members %v", members)
	}
	for _, id := range members {
		if id != "q1" && id != "q2" && id != "q3" {
			t.Fatalf("group 1 member %s not in target set", id)
		}
	}
	// Group 2 never moved and still serves.
	reply = mustSubmit(t, ctx, m, 2, "c", 2, statemachine.EncodeGet("home"))
	if got := string(statemachine.ReplyPayload(reply)); got != "g2" {
		t.Fatalf("stationary group reads %q", got)
	}
	if m.TotalViolations() != 0 {
		t.Fatal("invariant violations")
	}
}

// TestGroupManagerSubmitDuringFullMove: between the wedge and the first
// install of a full replacement (p1..p3 -> q1..q3) no member serves, but under
// speculative start every joiner orders commands — so a Submit has somebody
// to go to. The joiners' transfer is held back by delaying everything they
// send to the old members (the announce travels the other way and arrives);
// a submit made then is accepted by a speculating joiner, decided while the
// transfer hangs, and answered once the hold is lifted and the snapshot is in.
func TestGroupManagerSubmitDuringFullMove(t *testing.T) {
	var held atomic.Bool
	m := groupManager(t, Config{Transport: transport.Options{
		LinkLatency: func(from, to types.NodeID) time.Duration {
			if held.Load() && strings.HasPrefix(string(from), "q") && strings.HasPrefix(string(to), "p") {
				return time.Hour
			}
			return 100 * time.Microsecond
		},
	}})
	ctx := groupCtx(t)
	if err := m.CreateGroup(1, []types.NodeID{"p1", "p2", "p3"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitGroupServing(ctx, 1); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, ctx, m, 1, "c", 1, statemachine.EncodePut("home", []byte("before")))

	held.Store(true)
	joiners := []types.NodeID{"q1", "q2", "q3"}
	if _, err := m.ReconfigureGroup(ctx, 1, joiners); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "every joiner to learn the announce", func() bool {
		for _, id := range joiners {
			if m.Node(1, id).CurrentConfig().ID != 2 {
				return false
			}
		}
		return true
	})

	// The submit loop of a caller that treats every error as "try again";
	// what it must never be told is that the group has nobody to submit to.
	done := make(chan []byte, 1)
	var noReplica atomic.Int64
	go func() {
		for ctx.Err() == nil {
			reply, err := m.Submit(ctx, 1, "c", 2, statemachine.EncodePut("home", []byte("during")))
			if err == nil {
				done <- reply
				return
			}
			if errors.Is(err, errNoReplica) {
				noReplica.Add(1)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	waitFor(t, "a joiner to decide the command while its transfer hangs", func() bool {
		for _, id := range joiners {
			if m.Node(1, id).Stats().SpeculativeDecides > 0 {
				return true
			}
		}
		return false
	})
	for _, id := range joiners {
		if m.Node(1, id).Serving() {
			t.Fatalf("%s serves although its transfer is held back", id)
		}
	}
	select {
	case reply := <-done:
		t.Fatalf("submit answered %x before any joiner had the snapshot", reply)
	default:
	}

	held.Store(false)
	select {
	case reply := <-done:
		if statemachine.ReplyStatus(reply) != statemachine.StatusOK {
			t.Fatalf("parked put: %v", statemachine.ReplyStatus(reply))
		}
	case <-ctx.Done():
		t.Fatal("parked submit never answered after the hold was lifted")
	}
	if n := noReplica.Load(); n != 0 {
		t.Fatalf("%d submits were refused with errNoReplica during the move", n)
	}
	reply := mustSubmit(t, ctx, m, 1, "c", 3, statemachine.EncodeGet("home"))
	if got := string(statemachine.ReplyPayload(reply)); got != "during" {
		t.Fatalf("moved group reads %q", got)
	}
	if m.TotalViolations() != 0 {
		t.Fatal("invariant violations")
	}
}

// waitFor polls cond until it holds, failing the test after 15 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupManagerStopGroup: stopping one group leaves the others serving on
// the same processes.
func TestGroupManagerStopGroup(t *testing.T) {
	m := groupManager(t, Config{})
	ctx := groupCtx(t)
	procs := []types.NodeID{"p1", "p2", "p3"}
	for gid := types.GroupID(1); gid <= 2; gid++ {
		if err := m.CreateGroup(gid, procs, nil); err != nil {
			t.Fatal(err)
		}
		if err := m.WaitGroupServing(ctx, gid); err != nil {
			t.Fatal(err)
		}
	}
	m.StopGroup(1)
	if _, err := m.Submit(ctx, 1, "c", 1, statemachine.EncodeGet("x")); err == nil {
		t.Fatal("stopped group accepted a submit")
	}
	mustSubmit(t, ctx, m, 2, "c", 1, statemachine.EncodePut("still", []byte("alive")))
	if got := m.Groups(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("live groups %v", got)
	}
}

// TestGroupManagerGroupZeroReserved: group 0 is the legacy ungrouped runtime
// and cannot be created here.
func TestGroupManagerGroupZeroReserved(t *testing.T) {
	m := groupManager(t, Config{})
	if err := m.CreateGroup(0, []types.NodeID{"p1", "p2", "p3"}, nil); err == nil {
		t.Fatal("group 0 creation accepted")
	}
}

// TestGroupManagerOverTCP runs two groups over the real TCP fabric — every
// group's traffic multiplexes one connection per process pair.
func TestGroupManagerOverTCP(t *testing.T) {
	m := groupManager(t, Config{TCP: true})
	ctx := groupCtx(t)
	procs := []types.NodeID{"p1", "p2", "p3"}
	for gid := types.GroupID(1); gid <= 2; gid++ {
		if err := m.CreateGroup(gid, procs, nil); err != nil {
			t.Fatal(err)
		}
		if err := m.WaitGroupServing(ctx, gid); err != nil {
			t.Fatal(err)
		}
	}
	for gid := types.GroupID(1); gid <= 2; gid++ {
		for seq := uint64(1); seq <= 20; seq++ {
			mustSubmit(t, ctx, m, gid, "c", seq, statemachine.EncodePut(fmt.Sprintf("k%d", seq), []byte("v")))
		}
	}
	for gid := types.GroupID(1); gid <= 2; gid++ {
		gs := m.GroupStats(gid)
		if gs.Applied == 0 {
			t.Fatalf("group %d applied nothing over TCP", gid)
		}
	}
	if m.TotalViolations() != 0 {
		t.Fatal("invariant violations")
	}
}
