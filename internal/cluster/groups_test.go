package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

func groupCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	cfg.Node = FastOptions()
	if cfg.Factory == nil {
		cfg.Factory = statemachine.NewKVMachine
	}
	if !cfg.TCP {
		cfg.Transport.BaseLatency = 100 * time.Microsecond
	}
	m := New(cfg)
	t.Cleanup(m.Close)
	return m
}

func groupCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func mustSubmit(t *testing.T, ctx context.Context, m *Cluster, gid types.GroupID, client types.NodeID, seq uint64, op []byte) []byte {
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

// TestGroupsIsolatedKeyspaces: three groups on the same three
// processes hold independent keyspaces — the same key carries a different
// value per group, over one shared store and one endpoint per process.
func TestGroupsIsolatedKeyspaces(t *testing.T) {
	m := groupCluster(t, Config{})
	ctx := groupCtx(t)
	procs := []types.NodeID{"p1", "p2", "p3"}
	for gid := types.GroupID(1); gid <= 3; gid++ {
		if err := m.CreateGroup(gid, procs, nil); err != nil {
			t.Fatal(err)
		}
		if err := m.WaitServing(ctx, gid); err != nil {
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
	for _, gid := range m.Groups() {
		if gs := m.Stats(gid); gs.Applied == 0 {
			t.Fatalf("group %d reports zero applies: %+v", gid, gs)
		}
	}
}

// TestGroupsSharedWALCrashRestart: two groups share each process's WAL;
// crashing and restarting a process recovers both groups' replicas from the
// shared log, and both keyspaces stay intact and disjoint.
func TestGroupsSharedWALCrashRestart(t *testing.T) {
	m := groupCluster(t, Config{Storage: "wal"})
	ctx := groupCtx(t)
	procs := []types.NodeID{"p1", "p2", "p3"}
	for gid := types.GroupID(1); gid <= 2; gid++ {
		if err := m.CreateGroup(gid, procs, nil); err != nil {
			t.Fatal(err)
		}
		if err := m.WaitServing(ctx, gid); err != nil {
			t.Fatal(err)
		}
	}
	for gid := types.GroupID(1); gid <= 2; gid++ {
		mustSubmit(t, ctx, m, gid, "c", 1, statemachine.EncodePut("k", []byte(fmt.Sprintf("pre-crash-%d", gid))))
	}

	m.Crash("p2")
	// Both groups keep committing on the surviving majority.
	for gid := types.GroupID(1); gid <= 2; gid++ {
		mustSubmit(t, ctx, m, gid, "c", 2, statemachine.EncodePut("k2", []byte(fmt.Sprintf("during-crash-%d", gid))))
	}
	if err := m.Restart("p2"); err != nil {
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

// TestReconfigureMovesOneGroup migrates one group onto three fresh
// processes while another group stays put: state follows the replicas via
// snapshot transfer, the other group is untouched.
func TestReconfigureMovesOneGroup(t *testing.T) {
	m := groupCluster(t, Config{})
	ctx := groupCtx(t)
	old := []types.NodeID{"p1", "p2", "p3"}
	for gid := types.GroupID(1); gid <= 2; gid++ {
		if err := m.CreateGroup(gid, old, nil); err != nil {
			t.Fatal(err)
		}
		if err := m.WaitServing(ctx, gid); err != nil {
			t.Fatal(err)
		}
		mustSubmit(t, ctx, m, gid, "c", 1, statemachine.EncodePut("home", []byte(fmt.Sprintf("g%d", gid))))
	}

	next := []types.NodeID{"q1", "q2", "q3"}
	cfg, err := m.Reconfigure(ctx, 1, next)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ID < 2 {
		t.Fatalf("reconfigured config ID %d", cfg.ID)
	}
	if err := m.WaitServing(ctx, 1); err != nil {
		t.Fatal(err)
	}
	// Group 1's state moved with it.
	reply := mustSubmit(t, ctx, m, 1, "c", 2, statemachine.EncodeGet("home"))
	if got := string(statemachine.ReplyPayload(reply)); got != "g1" {
		t.Fatalf("migrated group reads %q", got)
	}
	members := m.Members(1)
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

// TestSubmitDuringFullMove: between the wedge and the first
// install of a full replacement (p1..p3 -> q1..q3) no member serves, but under
// speculative start every joiner orders commands — so a Submit has somebody
// to go to. The joiners' transfer is held back by delaying everything they
// send to the old members (the announce travels the other way and arrives);
// a submit made then is accepted by a speculating joiner, decided while the
// transfer hangs, and answered once the hold is lifted and the snapshot is in.
func TestSubmitDuringFullMove(t *testing.T) {
	var held atomic.Bool
	m := groupCluster(t, Config{Transport: transport.Options{
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
	if err := m.WaitServing(ctx, 1); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, ctx, m, 1, "c", 1, statemachine.EncodePut("home", []byte("before")))

	held.Store(true)
	joiners := []types.NodeID{"q1", "q2", "q3"}
	if _, err := m.Reconfigure(ctx, 1, joiners); err != nil {
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
			if errors.Is(err, ErrNoReplica) {
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
		t.Fatalf("%d submits were refused with ErrNoReplica during the move", n)
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

// TestStopGroup: stopping one group leaves the others serving on
// the same processes.
func TestStopGroup(t *testing.T) {
	m := groupCluster(t, Config{})
	ctx := groupCtx(t)
	procs := []types.NodeID{"p1", "p2", "p3"}
	for gid := types.GroupID(1); gid <= 2; gid++ {
		if err := m.CreateGroup(gid, procs, nil); err != nil {
			t.Fatal(err)
		}
		if err := m.WaitServing(ctx, gid); err != nil {
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

// TestGroupZeroBesideGroups: group 0 is a group like any other. It shares
// three processes and their WALs with group 1, the two keyspaces stay apart
// (group 0's records unprefixed, as a single-group store has always held
// them), a process restart recovers both, and a client session against
// group 0 keeps its dedup when the group moves.
func TestGroupZeroBesideGroups(t *testing.T) {
	m := groupCluster(t, Config{Storage: StorageWAL})
	ctx := groupCtx(t)
	procs := []types.NodeID{"p1", "p2", "p3"}
	for gid := types.GroupID(0); gid <= 1; gid++ {
		if err := m.CreateGroup(gid, procs, nil); err != nil {
			t.Fatal(err)
		}
		if err := m.WaitServing(ctx, gid, procs...); err != nil {
			t.Fatal(err)
		}
	}
	cl := m.NewClient(client.Options{})
	if _, err := cl.SubmitSeq(ctx, 1, statemachine.EncodePut("k", []byte("zero"))); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, ctx, m, 1, "c", 1, statemachine.EncodePut("k", []byte("one")))
	for _, key := range []string{"rc/init", "g1/rc/init"} {
		if _, ok, err := m.procs["p1"].Get(key); err != nil || !ok {
			t.Fatalf("p1's store has no %q (ok=%v err=%v)", key, ok, err)
		}
	}

	m.Crash("p2")
	if err := m.Restart("p2"); err != nil {
		t.Fatal(err)
	}
	for gid := types.GroupID(0); gid <= 1; gid++ {
		if err := m.WaitServing(ctx, gid, "p2"); err != nil {
			t.Fatalf("group %d on the restarted process: %v", gid, err)
		}
	}

	appendX := statemachine.EncodeAppend("k", []byte("x"))
	first, err := cl.SubmitSeq(ctx, 2, appendX)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Reconfigure(ctx, 0, []types.NodeID{"q1", "q2", "q3"}); err != nil {
		t.Fatal(err)
	}
	again, err := cl.SubmitSeq(ctx, 2, appendX) // the retry of a command the old members applied
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(first) {
		t.Fatalf("retry across the move answered %x, first answer %x", again, first)
	}
	reply, err := cl.SubmitSeq(ctx, 3, statemachine.EncodeGet("k"))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(statemachine.ReplyPayload(reply)); got != "zerox" {
		t.Fatalf("group 0 reads %q, want %q (applied twice, or leaked from group 1)", got, "zerox")
	}
	reply = mustSubmit(t, ctx, m, 1, "c", 2, statemachine.EncodeGet("k"))
	if got := string(statemachine.ReplyPayload(reply)); got != "one" {
		t.Fatalf("group 1 reads %q, want %q", got, "one")
	}
	if m.TotalViolations() != 0 {
		t.Fatal("invariant violations")
	}
}

// scanFailsOnce is a store whose next Scan fails.
type scanFailsOnce struct {
	storage.Store
	failed atomic.Bool
}

func (s *scanFailsOnce) Scan(prefix string) ([]storage.KV, error) {
	if s.failed.CompareAndSwap(false, true) {
		return nil, errors.New("injected scan failure")
	}
	return s.Store.Scan(prefix)
}

// TestFailedRestartLeavesNoGhost: a Restart during which one replica fails
// to start leaves the process crashed with nothing registered — no replica
// that is in the rotation but was never started — so a second Restart brings
// every group's replica back.
func TestFailedRestartLeavesNoGhost(t *testing.T) {
	m := groupCluster(t, Config{})
	ctx := groupCtx(t)
	procs := []types.NodeID{"p1", "p2", "p3"}
	gids := []types.GroupID{1, 2, 3}
	for _, gid := range gids {
		if err := m.CreateGroup(gid, procs, nil); err != nil {
			t.Fatal(err)
		}
		mustSubmit(t, ctx, m, gid, "c", 1, statemachine.EncodePut("k", []byte("v")))
	}

	m.Crash("p2")
	m.mu.Lock()
	m.procs["p2"] = &scanFailsOnce{Store: m.procs["p2"]}
	m.mu.Unlock()
	if err := m.Restart("p2"); err == nil {
		t.Fatal("Restart over a failing store reported success")
	}
	for _, gid := range gids {
		if m.Node(gid, "p2") != nil {
			t.Fatalf("group %d has a replica on p2 after a failed restart", gid)
		}
	}
	if err := m.Restart("p2"); err != nil {
		t.Fatalf("second restart: %v", err)
	}
	for _, gid := range gids {
		if err := m.WaitServing(ctx, gid, "p2"); err != nil {
			t.Fatalf("group %d on p2 after the second restart: %v", gid, err)
		}
		reply := mustSubmit(t, ctx, m, gid, "c", 2, statemachine.EncodeGet("k"))
		if got := string(statemachine.ReplyPayload(reply)); got != "v" {
			t.Fatalf("group %d reads %q", gid, got)
		}
	}
	if m.TotalViolations() != 0 {
		t.Fatal("invariant violations")
	}
}

// TestGroupsOverTCP runs two groups over the real TCP fabric — every
// group's traffic multiplexes one connection per process pair.
func TestGroupsOverTCP(t *testing.T) {
	m := groupCluster(t, Config{TCP: true})
	ctx := groupCtx(t)
	procs := []types.NodeID{"p1", "p2", "p3"}
	for gid := types.GroupID(1); gid <= 2; gid++ {
		if err := m.CreateGroup(gid, procs, nil); err != nil {
			t.Fatal(err)
		}
		if err := m.WaitServing(ctx, gid); err != nil {
			t.Fatal(err)
		}
	}
	for gid := types.GroupID(1); gid <= 2; gid++ {
		for seq := uint64(1); seq <= 20; seq++ {
			mustSubmit(t, ctx, m, gid, "c", seq, statemachine.EncodePut(fmt.Sprintf("k%d", seq), []byte("v")))
		}
	}
	for gid := types.GroupID(1); gid <= 2; gid++ {
		gs := m.Stats(gid)
		if gs.Applied == 0 {
			t.Fatalf("group %d applied nothing over TCP", gid)
		}
	}
	if m.TotalViolations() != 0 {
		t.Fatal("invariant violations")
	}
}
