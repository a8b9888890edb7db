package paxos

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// TestReleaseCostsOneGroupCommit: releasing a retired configuration's whole
// log — 4096 slots, two records each, and the promise — is what Discard
// stages and the one barrier its caller takes. (With one fsynced Delete per
// record it was 8192 fsyncs.) Nothing of the stream is left, and the
// discard's duration is printed, not gated.
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

	const slots = types.Slot(4096) // fastOpts: one command per slot
	for sent := 0; r.Progress().Delivered < slots; {
		for i := 0; i < 256; i++ {
			sent++
			tc.proposeVia("n1", appCmd("c", uint64(sent)))
		}
		tc.waitUntil(func() bool { return len(tc.appDelivered("n1")) >= sent }, "decisions", 10*time.Second)
	}
	r.Stop()

	syncs, records := wal.Syncs(), wal.Appends()
	start := time.Now()
	if err := (factory{}).Discard(wal, uint64(r.cfg.ID)); err != nil {
		t.Fatal(err)
	}
	if err := wal.Sync(); err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	syncs, records = wal.Syncs()-syncs, wal.Appends()-records
	t.Logf("discarded %d slots in %s: %d records, %d fsyncs", slots, took, records, syncs)
	if records < 2*int64(slots) {
		t.Fatalf("%d records for a %d-slot log: the log was not dropped", records, slots)
	}
	if syncs > 1 {
		t.Fatalf("discarding %d slots cost %d fsyncs, want <= 1", slots, syncs)
	}
	if kvs, _ := wal.Scan(r.prefix); len(kvs) != 0 {
		t.Fatalf("%d keys left under %s after the discard", len(kvs), r.prefix)
	}
}

// Discard removes its own stream's namespace and nothing else: not another
// stream's, even one whose number shares its digits, and not the composition
// layer's keys.
func TestDiscardLeavesOtherStreams(t *testing.T) {
	st := storage.NewMem()
	keys := []string{"pxs/1/promised", "pxs/1/acc/00000000000000000001", "pxs/1/dec/00000000000000000001",
		"pxs/12/promised", "pxs/2/acc/00000000000000000001", "rc/init"}
	for _, k := range keys {
		if err := st.SetBuffered(k, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := (factory{}).Discard(st, 1); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		_, ok, _ := st.Get(k)
		if want := k[:len("pxs/1/")] != "pxs/1/"; ok != want {
			t.Errorf("%s present = %v after discarding stream 1, want %v", k, ok, want)
		}
	}
}

// TestStoppedReplicaLendsItsLogMaps: a stopped replica's accepted and decided
// maps go, emptied, to the next replica built, so the replica of a successor
// configuration grows no tables its predecessor already grew.
func TestStoppedReplicaLendsItsLogMaps(t *testing.T) {
	takeLogMaps() // what an earlier test left
	tc := newTestCluster(t, 1, transport.Options{})
	tc.waitForLeader(5 * time.Second)
	r := tc.reps["n1"]
	for i := 1; i <= 50; i++ {
		tc.proposeVia("n1", appCmd("c", uint64(i)))
	}
	tc.waitUntil(func() bool { return len(tc.appDelivered("n1")) >= 50 }, "decisions", 10*time.Second)
	acc, dec := reflect.ValueOf(r.accepted).UnsafePointer(), reflect.ValueOf(r.decided).UnsafePointer()
	r.Stop()
	if r.accepted != nil || r.decided != nil {
		t.Fatal("a stopped replica still holds its log maps")
	}
	next, err := New(types.MustConfig(2, "n1"), "n1", tc.net.Endpoint("n1"), storage.NewMem(), 2, fastOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(next.accepted).UnsafePointer() != acc || reflect.ValueOf(next.decided).UnsafePointer() != dec {
		t.Fatal("the next replica built fresh log maps; the stopped replica's were not lent")
	}
	if len(next.accepted) != 0 || len(next.decided) != 0 {
		t.Fatalf("lent maps hold %d accepted and %d decided entries, want none", len(next.accepted), len(next.decided))
	}
}
