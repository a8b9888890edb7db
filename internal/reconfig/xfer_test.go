package reconfig

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/statemachine"
	"repro/internal/transport"
	"repro/internal/types"
)

// Fault-tolerance tests for chunked state transfer: a joiner must survive a
// poisoned source (per-chunk CRC) and the death of its only serving source
// mid-transfer (resume from persisted chunks against other members).

// setChunkHook installs a served-chunk interceptor on a node.
func setChunkHook(n *Node, hook func(id types.ConfigID, idx int, data []byte) []byte) {
	n.onLoop(func() { n.testChunkHook = hook })
}

// seedState writes enough KV data that the snapshot spans several range
// round trips (valueBytes per key, keys spread across all shards).
func seedState(t *testing.T, w *world, via types.NodeID, keys, valueBytes int) {
	t.Helper()
	val := bytes.Repeat([]byte("v"), valueBytes)
	for i := 0; i < keys; i++ {
		w.submit(via, "seeder", uint64(i+1), statemachine.EncodePut(fmt.Sprintf("key-%04d", i), val))
	}
}

func checkKey(t *testing.T, w *world, via types.NodeID, seq uint64, key string, wantLen int) {
	t.Helper()
	reply := w.submit(via, "checker", seq, statemachine.EncodeGet(key))
	if statemachine.ReplyStatus(reply) != statemachine.StatusOK {
		t.Fatalf("get %s via %s: status %v", key, via, statemachine.ReplyStatus(reply))
	}
	if got := len(statemachine.ReplyPayload(reply)); got != wantLen {
		t.Fatalf("get %s via %s: %d bytes, want %d", key, via, got, wantLen)
	}
}

// TestTransferRejectsCorruptChunk poisons the first wire copy of one chunk:
// every source corrupts chunk 3 exactly once (shared across nodes), so the
// joiner is guaranteed to see at least one corrupt copy no matter which
// source it picks first. The per-chunk CRC must discard exactly that copy —
// the retry fetches a clean one and the install must be byte-correct.
func TestTransferRejectsCorruptChunk(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond, Seed: 11})
	w.bootstrap(statemachine.NewKVMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	seedState(t, w, "n1", 64, 1024)

	var poisonOnce sync.Once
	corrupt := func(id types.ConfigID, idx int, data []byte) []byte {
		if idx != 3 {
			return data
		}
		out := data
		poisonOnce.Do(func() {
			bad := append([]byte(nil), data...)
			if len(bad) == 0 {
				bad = []byte{0xff}
			} else {
				bad[0] ^= 0xff
			}
			out = bad
		})
		return out
	}
	for _, id := range []types.NodeID{"n1", "n2", "n3"} {
		setChunkHook(w.node(id), corrupt)
	}

	spare := w.startNode("n4", statemachine.NewKVMachine)
	if err := spare.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := w.node("n1").Reconfigure(ctx, []types.NodeID{"n1", "n2", "n3", "n4"}); err != nil {
		t.Fatal(err)
	}
	w.waitServing("n4")

	st := w.node("n4").Stats()
	if st.ChunkCRCRejected == 0 {
		t.Fatal("corrupt chunk was never rejected: the CRC check did not run")
	}
	if st.SnapshotsFetched != 1 {
		t.Fatalf("snapshot installs = %d, want 1", st.SnapshotsFetched)
	}
	// The rejected copy must not have poisoned the install.
	checkKey(t, w, "n4", 1, "key-0000", 1024)
	checkKey(t, w, "n4", 2, "key-0063", 1024)
	w.checkNoViolations()
}

// TestTransferEndsWhenTheNodeMovesOn isolates a joiner from every source of
// its snapshot until its transfer is waiting out a backoff of its fruitless
// rounds, then hands it the chain record of a successor it is not a member of.
// The transfer must end at once: its backoff and its in-flight fetches are
// cancelled, not waited out.
func TestTransferEndsWhenTheNodeMovesOn(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond, Seed: 17})
	w.bootstrap(statemachine.NewKVMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	joiner := w.startNode("n4", statemachine.NewKVMachine)
	if err := joiner.Start(); err != nil {
		t.Fatal(err)
	}
	w.net.Isolate("n4")
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := w.node("n1").Reconfigure(ctx, []types.NodeID{"n1", "n2", "n3", "n4"}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.node("n1").Reconfigure(ctx, []types.NodeID{"n1", "n2", "n3"}); err != nil {
		t.Fatal(err)
	}
	recs := w.node("n1").ChainRecords()
	if len(recs) != 2 || recs[1].To.ID != 3 {
		t.Fatalf("chain %v, want 1→2→3", recs)
	}

	joiner.handleAnnounce(recs[0])
	// Five fruitless rounds: the fifth backoff is 120–200 ms.
	w.waitStat(func() bool { return joiner.Stats().ChunkRetries >= 5 }, "five fruitless transfer rounds", 15*time.Second)
	joiner.handleAnnounce(recs[1])
	moved := time.Now()
	for {
		var running types.ConfigID
		joiner.inspect(func() { running = joiner.transfer })
		if running == 0 {
			break
		}
		if waited := time.Since(moved); waited > fetchTimeout/3 {
			t.Fatalf("transfer of configuration %d still running %v after the node moved past it", running, waited)
		}
		time.Sleep(time.Millisecond)
	}
	if id := joiner.CurrentConfig().ID; id != 3 {
		t.Fatalf("joiner at configuration %d, want 3", id)
	}
	w.checkNoViolations()
}

// TestTransferResumesAfterSourceDies isolates a joiner so exactly one member
// can serve it, kills that member once a partial transfer is through, then
// heals the network: the joiner must finish from the surviving members,
// fetching only the chunks it does not already hold.
func TestTransferResumesAfterSourceDies(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond, Seed: 13})
	w.bootstrap(statemachine.NewKVMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	// ~2MB of state: the snapshot spans many rangeBudget-sized round trips.
	seedState(t, w, "n1", 512, 4096)

	spare := w.startNode("n4", statemachine.NewKVMachine)
	if err := spare.Start(); err != nil {
		t.Fatal(err)
	}
	// n4 can only talk to n1.
	w.net.BlockLink("n4", "n2")
	w.net.BlockLink("n4", "n3")

	// n1 stops serving chunks (replies never sent) after ~a third of the
	// snapshot is through, and signals the test.
	const serveLimit = 12
	served := 0
	var mu sync.Mutex
	stalled := make(chan struct{})
	block := make(chan struct{})
	defer close(block)
	setChunkHook(w.node("n1"), func(id types.ConfigID, idx int, data []byte) []byte {
		mu.Lock()
		served++
		hit := served == serveLimit
		over := served > serveLimit
		mu.Unlock()
		if hit {
			close(stalled)
		}
		if hit || over {
			<-block // hold the reply hostage, and n1's loop with it when the chunk is in memory: n1 has effectively died
		}
		return data
	})

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := w.node("n1").Reconfigure(ctx, []types.NodeID{"n1", "n2", "n3", "n4"}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-stalled:
	case <-time.After(15 * time.Second):
		t.Fatal("transfer never reached the serve limit")
	}
	// Kill the only source, then let the joiner reach the survivors.
	w.net.Endpoint("n1").Pause()
	w.net.UnblockLink("n4", "n2")
	w.net.UnblockLink("n4", "n3")
	w.waitServing("n4")

	st := w.node("n4").Stats()
	total := 1 + 32 // session chunk + KV shards
	if st.SnapshotsFetched != 1 {
		t.Fatalf("snapshot installs = %d, want 1", st.SnapshotsFetched)
	}
	if st.ChunksFetched != int64(total) {
		t.Fatalf("chunks fetched = %d, want exactly %d (each chunk once)", st.ChunksFetched, total)
	}
	// The survivors must have served only the remainder — the joiner resumed
	// rather than restarting the transfer.
	fromSurvivors := w.node("n2").Stats().ChunksServed + w.node("n3").Stats().ChunksServed
	if fromSurvivors >= int64(total) {
		t.Fatalf("survivors served %d chunks; a resumed transfer needs fewer than %d", fromSurvivors, total)
	}
	checkKey(t, w, "n4", 1, "key-0000", 4096)
	checkKey(t, w, "n4", 2, "key-0511", 4096)
	w.checkNoViolations()
}

// TestTransferResumesAcrossJoinerCrash crashes the *joiner* mid-transfer:
// after restart it must adopt the chunks it already persisted and fetch only
// the rest.
func TestTransferResumesAcrossJoinerCrash(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond, Seed: 17})
	w.bootstrap(statemachine.NewKVMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	seedState(t, w, "n1", 512, 4096)

	spare := w.startNode("n4", statemachine.NewKVMachine)
	if err := spare.Start(); err != nil {
		t.Fatal(err)
	}
	// Every member serves only corrupt chunks once they have collectively
	// served a partial snapshot, so the crash below is guaranteed to interrupt
	// an incomplete transfer. The hook runs on the apply loop when the chunk
	// is served from memory, so it must not block.
	const serveLimit = 12
	served := 0
	var mu sync.Mutex
	stalled := make(chan struct{})
	hook := func(id types.ConfigID, idx int, data []byte) []byte {
		mu.Lock()
		served++
		hit := served == serveLimit
		over := served >= serveLimit
		mu.Unlock()
		if hit {
			close(stalled)
		}
		if over && len(data) > 0 {
			return data[:len(data)-1] // fails the chunk's CRC
		}
		return data
	}
	for _, id := range []types.NodeID{"n1", "n2", "n3"} {
		setChunkHook(w.node(id), hook)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := w.node("n1").Reconfigure(ctx, []types.NodeID{"n1", "n2", "n3", "n4"}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-stalled:
	case <-time.After(15 * time.Second):
		t.Fatal("transfer never reached the serve limit")
	}

	before := w.node("n4").Stats().ChunksFetched
	if before == 0 {
		t.Fatal("joiner persisted nothing before the crash; test proves nothing")
	}
	restarted := w.crashRestart("n4", statemachine.NewKVMachine)
	for _, id := range []types.NodeID{"n1", "n2", "n3"} {
		setChunkHook(w.node(id), nil) // sources behave again
	}
	w.waitServing("n4")

	total := int64(1 + 32)
	after := restarted.Stats().ChunksFetched
	if after >= total {
		t.Fatalf("restarted joiner fetched %d chunks; resuming from its store needs fewer than %d", after, total)
	}
	checkKey(t, w, "n4", 1, "key-0000", 4096)
	checkKey(t, w, "n4", 2, "key-0511", 4096)
	w.checkNoViolations()
}
