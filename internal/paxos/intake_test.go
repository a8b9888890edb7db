package paxos

import (
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// holdLoop parks r's event loop inside a read-index callback (the callback
// runs on the loop for a leader of one and for any follower) and returns the
// function that lets it go. Whatever is proposed meanwhile is queued before
// the loop's next turn. Calling release twice is fine, so a test defers it:
// a failing run must not leave the loop parked under Stop.
func holdLoop(t *testing.T, r *Replica) (release func()) {
	t.Helper()
	entered, gate := make(chan struct{}), make(chan struct{})
	if err := r.ReadIndex(func(types.Slot, error) { close(entered); <-gate }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("read-index callback never ran")
	}
	return sync.OnceFunc(func() { close(gate) })
}

// batched tunes a test cluster to the engine's default batching.
func batched(o *Options) { o.batchSize = 16 }

// appsOf unpacks the application commands of a decision sequence, in order.
func appsOf(t *testing.T, tc *testCluster, id types.NodeID) []types.Command {
	t.Helper()
	var out []types.Command
	for _, d := range tc.deliveredAt(id) {
		switch d.Cmd.Kind {
		case types.CmdApp:
			out = append(out, d.Cmd)
		case types.CmdBatch:
			subs, err := types.DecodeBatch(d.Cmd.Data)
			if err != nil {
				t.Fatalf("slot %d: %v", d.Slot, err)
			}
			out = append(out, subs...)
		}
	}
	return out
}

// A clump of proposals that is queued when the leader's loop turns is packed,
// not spread: N commands take at most ceil(N/batchSize)+pipelineDepth slots,
// each proposer's commands stay in order, and on a WAL store the whole clump
// — accepts and decisions — is made durable by one group commit.
func TestLeaderPacksQueuedClump(t *testing.T) {
	tc := newTestClusterOn(t, 1, transport.Options{}, func(types.NodeID) storage.Store {
		w, err := storage.OpenWALStore(t.TempDir(), storage.WALStoreOptions{SyncWrites: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = w.Close() })
		return w
	}, batched)
	tc.waitForLeader(5 * time.Second)
	r := tc.reps["n1"]

	release := holdLoop(t, r)
	defer release()
	before := r.Stats()
	slotsBefore := r.Progress().Delivered
	const n = 40
	for i := 1; i <= n/2; i++ {
		tc.proposeVia("n1", appCmd("a", uint64(i)))
		tc.proposeVia("n1", appCmd("b", uint64(i)))
	}
	release()
	tc.waitUntil(func() bool { return len(appsOf(t, tc, "n1")) >= n }, "the clump to be decided", 10*time.Second)

	opts := r.opts
	slots := int(r.Progress().Delivered - slotsBefore)
	if limit := (n+opts.batchSize-1)/opts.batchSize + pipelineDepth; slots > limit {
		t.Fatalf("%d queued commands took %d slots, want <= %d", n, slots, limit)
	}
	next := map[types.NodeID]uint64{"a": 1, "b": 1}
	for _, cmd := range appsOf(t, tc, "n1") {
		if cmd.Seq != next[cmd.Client] {
			t.Fatalf("%s: seq %d decided where %d was due", cmd.Client, cmd.Seq, next[cmd.Client])
		}
		next[cmd.Client]++
	}
	if got := r.Stats().GroupCommits - before.GroupCommits; got != 1 {
		t.Fatalf("the clump cost %d group commits, want 1", got)
	}
}

// A follower's clump leaves for the leader in one forward frame.
func TestFollowerForwardsQueuedClumpInOneFrame(t *testing.T) {
	tc := newTestClusterOn(t, 3, transport.Options{}, func(types.NodeID) storage.Store { return storage.NewMem() }, batched)
	lead := tc.waitForLeader(5 * time.Second)
	var follower types.NodeID
	for _, id := range tc.cfg.Members {
		if id != lead {
			follower = id
			break
		}
	}
	r := tc.reps[follower]
	tc.waitUntil(func() bool { hint, _ := r.Leader(); return hint == lead }, "the follower to learn its leader", 5*time.Second)

	release := holdLoop(t, r)
	defer release()
	before := tc.net.Stats().PerKind[KindForward].Messages
	const n = 20
	for i := 1; i <= n; i++ {
		tc.proposeVia(follower, appCmd("c", uint64(i)))
	}
	release()
	tc.waitUntil(func() bool { return len(appsOf(t, tc, follower)) >= n }, "the clump to be decided", 10*time.Second)
	if got := tc.net.Stats().PerKind[KindForward].Messages - before; got != 1 {
		t.Fatalf("the follower's clump left in %d forward frames, want 1", got)
	}
	for i, cmd := range appsOf(t, tc, follower) {
		if cmd.Seq != uint64(i+1) {
			t.Fatalf("position %d holds seq %d: forwarded clump reordered", i, cmd.Seq)
		}
	}
}

// The inbox holds inboxLimit frames: the next one is dropped and counted once,
// and a take makes room again.
func TestInboxDropsPastLimit(t *testing.T) {
	r, _ := bareReplica(t)
	for i := 0; i <= inboxLimit; i++ {
		r.receive("n2", r.stream, KindHeartbeat, nil)
	}
	if got := r.Stats().DroppedInbound; got != 1 {
		t.Fatalf("%d inbound frames dropped, want 1 (the one past %d)", got, inboxLimit)
	}
	if n := r.inbox.Len(); n != inboxLimit {
		t.Fatalf("%d frames queued, want %d", n, inboxLimit)
	}
	r.inbox.Take(nil, 1)
	r.receive("n2", r.stream, KindHeartbeat, nil)
	if got := r.Stats().DroppedInbound; got != 1 {
		t.Fatalf("%d dropped after a take made room, want still 1", got)
	}
}

// A turn absorbs at most burstBudget events. What it leaves behind stays in
// order for the next turn, and the wake of every queue it left work in is
// armed again — the proposals' too, which this turn never reached — so the
// next turn starts at once instead of at the next tick.
func TestDrainBurstKeepsOrderAcrossBudget(t *testing.T) {
	r, _ := bareReplica(t)
	const frames, proposals = burstBudget + 44, 5
	for i := 1; i <= frames; i++ {
		r.receive("n2", r.stream, KindForward, encodeForward(forwardMsg{Cmds: []types.Command{appCmd("f", uint64(i))}}))
	}
	for i := 1; i <= proposals; i++ {
		if err := r.Propose(appCmd("p", uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// The loop wakes, consuming the signals, and runs one turn.
	<-r.inbox.Wake()
	<-r.proposals.Wake()
	r.drainBurst(burstBudget)
	if n := len(r.pending); n != burstBudget {
		t.Fatalf("one turn absorbed %d events, want the budget, %d", n, burstBudget)
	}
	for name, q := range map[string]<-chan struct{}{"inbox": r.inbox.Wake(), "proposals": r.proposals.Wake()} {
		select {
		case <-q:
		default:
			t.Fatalf("the turn left work in the %s queue and its wake unarmed", name)
		}
	}
	r.drainBurst(burstBudget)
	if n := len(r.pending); n != frames+proposals {
		t.Fatalf("%d commands pending after two turns, want %d", n, frames+proposals)
	}
	next := map[types.NodeID]uint64{"f": 1, "p": 1}
	for i, cmd := range r.pending {
		if cmd.Seq != next[cmd.Client] {
			t.Fatalf("position %d: %s seq %d where %d was due", i, cmd.Client, cmd.Seq, next[cmd.Client])
		}
		next[cmd.Client]++
	}
}
