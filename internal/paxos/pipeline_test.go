package paxos

import (
	"testing"

	"repro/internal/types"
)

// leaderReplica builds an unstarted replica promoted to leader so proposer
// logic can be driven directly (peers never answer, so every proposal stays
// inflight until the test resolves it).
func leaderReplica(t *testing.T) *Replica {
	t.Helper()
	r, _ := bareReplica(t)
	r.role = roleLeader
	r.ballot = types.Ballot{Round: 1, Leader: r.self}
	r.amLeader.Store(true)
	return r
}

// turn plays one loop turn that admits cmds: slots are assigned at its end.
func turn(r *Replica, cmds ...types.Command) {
	for _, cmd := range cmds {
		r.handlePropose(cmd)
	}
	r.placePending()
}

func TestPipelineWindowGatesProposals(t *testing.T) {
	r := leaderReplica(t)
	for i := 0; i < pipelineDepth; i++ {
		turn(r, appCmd("c", uint64(i+1)))
	}
	if got := len(r.inflight); got != pipelineDepth {
		t.Fatalf("inflight %d, want the full window %d", got, pipelineDepth)
	}
	// The window is full: the next proposal must queue, not open a slot.
	turn(r, appCmd("c", 100))
	if got := len(r.inflight); got != pipelineDepth {
		t.Fatalf("inflight grew to %d past the pipeline window %d", got, pipelineDepth)
	}
	if got := len(r.pending); got != 1 {
		t.Fatalf("pending %d, want 1 queued command", got)
	}
}

// TestLearnClearsZombieInflight is the regression test for a proposer
// livelock: when an inflight slot is chosen out of band (an old leader's
// decide broadcast, a catch-up response, or onAccept's already-decided fast
// path), acceptors answer KindDecide — never Accepted — so maybeDecide can
// never clear the slot. learn() must remove such entries, or a handful of
// them permanently fills the pipeline window and the leader stops proposing
// while client retries pile up forever.
func TestLearnClearsZombieInflight(t *testing.T) {
	r := leaderReplica(t)
	first := r.nextSlot
	for i := 0; i < pipelineDepth; i++ {
		turn(r, appCmd("c", uint64(i+1)))
	}
	turn(r, appCmd("c", 100)) // window full: queued behind the pipeline

	// Slot `first` was chosen elsewhere with the same value we proposed.
	r.learn(decideMsg{Slot: first, Cmd: appCmd("c", 1)})
	if _, ok := r.inflight[first]; ok {
		t.Fatal("decided slot still inflight after learn")
	}
	// Freeing the window slot must promote the queued command in the same turn.
	r.placePending()
	if got := len(r.pending); got != 0 {
		t.Fatalf("pending %d after window opened, want 0", got)
	}
	if got := len(r.inflight); got != pipelineDepth {
		t.Fatalf("inflight %d after refill, want %d", got, pipelineDepth)
	}

	// Slot first+1 was chosen elsewhere with a DIFFERENT value: our command
	// lost the slot and must be re-proposed (at a fresh slot), not dropped.
	lost := appCmd("c", 2)
	r.learn(decideMsg{Slot: first + 1, Cmd: types.Command{Kind: types.CmdApp, Client: "z", Seq: 7, Data: []byte("winner")}})
	if _, ok := r.inflight[first+1]; ok {
		t.Fatal("out-of-band decided slot still inflight")
	}
	r.placePending()
	found := false
	for slot, sp := range r.inflight {
		if sp.cmd.Equal(lost) && slot > first+1 {
			found = true
		}
	}
	if !found && len(r.pending) == 0 {
		t.Fatal("command that lost its slot was dropped, not re-proposed")
	}

	// Learning a slot that is not inflight (follower path) stays harmless.
	r.learn(decideMsg{Slot: first + 1000, Cmd: types.NoopCommand()})
	if got := len(r.inflight); got != pipelineDepth {
		t.Fatalf("inflight %d after unrelated learn, want %d", got, pipelineDepth)
	}
}

// A batch the leader takes back — it stepped down with the slot open, or
// another value won the slot — must return to the queue as its member
// commands. Re-queued whole it is packed into the next batch as one command,
// and the apply layer, which unpacks one level, hands the inner batch's bytes
// to the state machine as a single op (on the counter machine they decode as
// "set 1").
func TestRequeuedBatchIsUnpacked(t *testing.T) {
	onlyPlain := func(what string, cmds []types.Command) {
		t.Helper()
		for _, cmd := range cmds {
			if cmd.Kind != types.CmdApp {
				t.Fatalf("%s: a %v command where only plain commands belong", what, cmd.Kind)
			}
		}
	}
	r := leaderReplica(t)
	r.opts.batchSize = 16
	turn(r, appCmd("a", 1), appCmd("b", 1), appCmd("c", 1))
	if len(r.inflight) != 1 || len(r.pending) != 0 {
		t.Fatalf("inflight %d pending %d, want the clump in one slot", len(r.inflight), len(r.pending))
	}

	r.stepDown()
	if len(r.pending) != 3 {
		t.Fatalf("pending %d after step-down, want the batch's 3 members", len(r.pending))
	}
	onlyPlain("queue after step-down", r.pending)

	// Leader again: the members and a newcomer share the next slot, one level deep.
	r.role = roleLeader
	slot := r.nextSlot
	turn(r, appCmd("d", 1))
	subs, err := types.DecodeBatch(r.inflight[slot].cmd.Data)
	if err != nil || len(subs) != 4 {
		t.Fatalf("slot %d holds %d commands (%v), want 4", slot, len(subs), err)
	}
	onlyPlain("re-proposed batch", subs)

	// The same slot is won by someone else's value: ours goes back unpacked.
	r.learn(decideMsg{Slot: slot, Cmd: appCmd("z", 9)})
	if len(r.pending) != 4 {
		t.Fatalf("pending %d after losing the slot, want 4", len(r.pending))
	}
	onlyPlain("queue after losing the slot", r.pending)
}
