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

func TestPipelineWindowGatesProposals(t *testing.T) {
	r := leaderReplica(t)
	for i := 0; i < r.opts.Pipeline; i++ {
		r.handlePropose(appCmd("c", uint64(i+1)))
	}
	if got := len(r.inflight); got != r.opts.Pipeline {
		t.Fatalf("inflight %d, want the full window %d", got, r.opts.Pipeline)
	}
	// The window is full: the next proposal must queue, not open a slot.
	r.handlePropose(appCmd("c", 100))
	if got := len(r.inflight); got != r.opts.Pipeline {
		t.Fatalf("inflight grew to %d past the Pipeline window %d", got, r.opts.Pipeline)
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
// them permanently fills the Pipeline window and the leader stops proposing
// while client retries pile up forever.
func TestLearnClearsZombieInflight(t *testing.T) {
	r := leaderReplica(t)
	first := r.nextSlot
	for i := 0; i < r.opts.Pipeline; i++ {
		r.handlePropose(appCmd("c", uint64(i+1)))
	}
	queued := appCmd("c", 100)
	r.handlePropose(queued) // window full: queued behind the pipeline

	// Slot `first` was chosen elsewhere with the same value we proposed.
	r.learn(decideMsg{Slot: first, Cmd: appCmd("c", 1)})
	if _, ok := r.inflight[first]; ok {
		t.Fatal("decided slot still inflight after learn")
	}
	// Freeing the window slot must immediately promote the queued command.
	if got := len(r.pending); got != 0 {
		t.Fatalf("pending %d after window opened, want 0", got)
	}
	if got := len(r.inflight); got != r.opts.Pipeline {
		t.Fatalf("inflight %d after refill, want %d", got, r.opts.Pipeline)
	}

	// Slot first+1 was chosen elsewhere with a DIFFERENT value: our command
	// lost the slot and must be re-proposed (at a fresh slot), not dropped.
	lost := appCmd("c", 2)
	r.learn(decideMsg{Slot: first + 1, Cmd: types.Command{Kind: types.CmdApp, Client: "z", Seq: 7, Data: []byte("winner")}})
	if _, ok := r.inflight[first+1]; ok {
		t.Fatal("out-of-band decided slot still inflight")
	}
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
	if got := len(r.inflight); got != r.opts.Pipeline {
		t.Fatalf("inflight %d after unrelated learn, want %d", got, r.opts.Pipeline)
	}
}
