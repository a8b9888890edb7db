package paxos

import (
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// TestTruncatedSlotRedirect is the end-to-end truncation contract: a member
// cut off while the survivors decide past it and truncate their logs cannot
// replay the released prefix — its catch-up requests come back as a
// checkpoint redirect (CheckpointNeeded latches, delivery stays parked) —
// and a SkipTo at the checkpoint base resumes delivery right above it.
func TestTruncatedSlotRedirect(t *testing.T) {
	tc := newTestCluster(t, 3, transport.Options{})
	lead := tc.waitForLeader(2 * time.Second)
	victim := types.NodeID("n3")
	if lead == victim {
		victim = "n1"
	}
	survivors := make([]types.NodeID, 0, 2)
	for id := range tc.reps {
		if id != victim {
			survivors = append(survivors, id)
		}
	}
	tc.net.Isolate(victim)

	const total = 20
	for i := 1; i <= total; i++ {
		tc.proposeVia(lead, appCmd("c", uint64(i)))
	}
	tc.waitUntil(func() bool {
		for _, id := range survivors {
			if len(tc.appDelivered(id)) < total {
				return false
			}
		}
		return true
	}, "survivors to decide", 10*time.Second)

	// The checkpoint story: state through slot 15 is durable elsewhere, so
	// the survivors release everything at or below it.
	const floor = types.Slot(15)
	for _, id := range survivors {
		tc.reps[id].TruncateBelow(floor)
	}
	tc.waitUntil(func() bool {
		for _, id := range survivors {
			if tc.reps[id].Progress().TruncatedBelow != floor {
				return false
			}
		}
		return true
	}, "survivors to truncate", 5*time.Second)
	for _, id := range survivors {
		st := tc.reps[id].Stats()
		if st.TruncatedSlots < int64(floor) {
			t.Fatalf("%s: truncated %d slots, want >= %d", id, st.TruncatedSlots, floor)
		}
		if st.RetainedSlots > int64(total)+5-int64(floor) {
			t.Fatalf("%s: still retains %d slots after truncating below %d", id, st.RetainedSlots, floor)
		}
	}

	// Heal. The victim's catch-up for slot 1 lands below every survivor's
	// floor: no log replay is possible, only the redirect.
	before := len(tc.appDelivered(victim))
	tc.net.Restore(victim)
	rep := tc.reps[victim]
	tc.waitUntil(func() bool {
		return rep.Progress().CheckpointNeeded
	}, "redirect to latch CheckpointNeeded", 10*time.Second)
	if got := len(tc.appDelivered(victim)); got != before {
		t.Fatalf("victim delivered %d commands across an unfillable gap", got-before)
	}
	if p := rep.Progress(); p.MaxDecidedSeen < types.Slot(total) {
		t.Fatalf("frontier probe: MaxDecidedSeen=%d, want >= %d", p.MaxDecidedSeen, total)
	}

	// "Install the checkpoint" and resume: delivery must restart at floor+1
	// and agree with the survivors above it.
	rep.SkipTo(floor)
	tc.waitUntil(func() bool {
		return rep.Progress().Delivered >= types.Slot(total)
	}, "victim to catch up above the checkpoint", 10*time.Second)
	if p := rep.Progress(); p.CheckpointNeeded {
		t.Fatal("CheckpointNeeded still latched after SkipTo")
	}
	ref := make(map[types.Slot]types.Command)
	for _, d := range tc.deliveredAt(survivors[0]) {
		ref[d.Slot] = d.Cmd
	}
	tail := tc.deliveredAt(victim)[before:]
	if len(tail) == 0 {
		t.Fatal("victim delivered nothing after SkipTo")
	}
	if tail[0].Slot != floor+1 {
		t.Fatalf("delivery resumed at slot %d, want %d", tail[0].Slot, floor+1)
	}
	for i, d := range tail {
		if d.Slot != floor+1+types.Slot(i) {
			t.Fatalf("gap or disorder after SkipTo: position %d has slot %d", i, d.Slot)
		}
		if want, ok := ref[d.Slot]; !ok || !d.Cmd.Equal(want) {
			t.Fatalf("slot %d disagrees with survivor: %v vs %v", d.Slot, d.Cmd, want)
		}
	}
}

// TestTruncationFloorSurvivesRestart: the floor is durable, recovery resumes
// delivery above it instead of resurrecting released slots, and the
// factory's Floor reads it back without a replica.
func TestTruncationFloorSurvivesRestart(t *testing.T) {
	tc := newTestCluster(t, 1, transport.Options{})
	tc.waitForLeader(2 * time.Second)
	const total = 10
	for i := 1; i <= total; i++ {
		tc.proposeVia("n1", appCmd("c", uint64(i)))
	}
	tc.waitUntil(func() bool {
		return len(tc.appDelivered("n1")) >= total
	}, "decisions", 5*time.Second)

	const floor = types.Slot(5)
	tc.reps["n1"].TruncateBelow(floor)
	tc.waitUntil(func() bool {
		return tc.reps["n1"].Progress().TruncatedBelow == floor
	}, "truncation", 2*time.Second)
	tc.reps["n1"].Stop()

	got, err := factory{}.Floor(tc.stores["n1"], uint64(tc.cfg.ID))
	if err != nil {
		t.Fatal(err)
	}
	if got != floor {
		t.Fatalf("Floor = %d, want %d", got, floor)
	}
	if other, err := (factory{}).Floor(tc.stores["n1"], 999); err != nil || other != 0 {
		t.Fatalf("Floor of unknown stream = %d, %v; want 0, nil", other, err)
	}

	// Reboot over the same store: the recovered replica redelivers only the
	// retained suffix.
	tc.startReplica("n1")
	tc.waitUntil(func() bool {
		p := tc.reps["n1"].Progress()
		return p.Delivered >= types.Slot(total) && p.TruncatedBelow == floor
	}, "recovery to the retained suffix", 5*time.Second)
	dels := tc.deliveredAt("n1")
	if len(dels) == 0 {
		t.Fatal("nothing redelivered after restart")
	}
	if dels[0].Slot != floor+1 {
		t.Fatalf("redelivery starts at slot %d, want %d", dels[0].Slot, floor+1)
	}
	for i, d := range dels {
		if d.Slot != floor+1+types.Slot(i) {
			t.Fatalf("redelivery gap at position %d: slot %d", i, d.Slot)
		}
	}
}

// TestTruncateBelowClampsToDelivered: the floor never outruns the delivered
// prefix — truncating "everything" releases only what was applied.
func TestTruncateBelowClampsToDelivered(t *testing.T) {
	tc := newTestCluster(t, 1, transport.Options{})
	tc.waitForLeader(2 * time.Second)
	for i := 1; i <= 4; i++ {
		tc.proposeVia("n1", appCmd("c", uint64(i)))
	}
	tc.waitUntil(func() bool {
		return len(tc.appDelivered("n1")) >= 4
	}, "decisions", 5*time.Second)
	delivered := tc.reps["n1"].Progress().Delivered

	tc.reps["n1"].TruncateBelow(1 << 40)
	tc.waitUntil(func() bool {
		return tc.reps["n1"].Progress().TruncatedBelow > 0
	}, "truncation", 2*time.Second)
	if got := tc.reps["n1"].Progress().TruncatedBelow; got > delivered {
		t.Fatalf("floor %d ran past the delivered prefix %d", got, delivered)
	}
}

// TestReleaseCostsOneGroupCommit: releasing a checkpoint interval's worth of
// log — 4096 slots, two records each — is one staged floor, 8192 staged
// deletes and the one barrier of the loop turn that does it. (With one fsynced
// Delete per record it was 8192 fsyncs inside the engine loop, 1.6 s without
// an acknowledgement on the benchmark's durable workload.) The turn's
// duration is printed, not gated.
func TestReleaseCostsOneGroupCommit(t *testing.T) {
	var wal *storage.WALStore
	tc := newTestClusterOn(t, 1, transport.Options{}, func(types.NodeID) storage.Store {
		w, err := storage.OpenWALStore(t.TempDir(), storage.WALStoreOptions{SyncWrites: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = w.Close() })
		wal = w
		return w
	}, nil)
	tc.waitForLeader(5 * time.Second)
	r := tc.reps["n1"]

	const floor = types.Slot(4096) // fastOpts: one command per slot
	for sent := 0; r.Progress().Delivered < floor; {
		for i := 0; i < 256; i++ {
			sent++
			tc.proposeVia("n1", appCmd("c", uint64(sent)))
		}
		tc.waitUntil(func() bool { return len(tc.appDelivered("n1")) >= sent }, "decisions", 10*time.Second)
	}

	commits, syncs, records := r.Stats().GroupCommits, wal.Syncs(), wal.Appends()
	start := time.Now()
	r.TruncateBelow(floor)
	// The floor is published inside the turn; the turn is over when its
	// barrier has been counted.
	tc.waitUntil(func() bool {
		return r.Progress().TruncatedBelow == floor && r.Stats().GroupCommits > commits
	}, "the release and its barrier", 30*time.Second)
	took := time.Since(start)
	time.Sleep(10 * time.Millisecond) // anything more the release set off would show now
	commits, syncs, records = r.Stats().GroupCommits-commits, wal.Syncs()-syncs, wal.Appends()-records
	t.Logf("released %d slots in %s: %d records, %d group commits, %d fsyncs", floor, took, records, commits, syncs)
	if records < 2*int64(floor) {
		t.Fatalf("%d records for %d released slots: the log under the floor was not dropped", records, floor)
	}
	if commits > 1 || syncs > 1 {
		t.Fatalf("releasing %d slots cost %d group commits and %d fsyncs, want <= 1 of each", floor, commits, syncs)
	}
	if kvs, _ := wal.Scan(r.prefix + "acc/"); len(kvs) > int(r.Progress().Delivered-floor) {
		t.Fatalf("%d accepted records left above a floor %d below the frontier %d", len(kvs), floor, r.Progress().Delivered)
	}
}
