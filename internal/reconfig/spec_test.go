package reconfig

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// Targeted tests for speculative successor start (paper §1): a joiner that
// learns it is a member of c+1 starts that configuration's engine immediately
// and votes/accepts/decides while the snapshot is still streaming. Decided
// slots park in the engine's buffer and drain only after the install; replies
// never fire before the apply point passes the snapshot's base index.
//
// The transfer is held "in flight" here by corrupting every served chunk:
// the per-chunk CRC rejects each copy, so the fetch keeps retrying without
// ever installing — and without blocking any RPC goroutine, so the cluster
// keeps deciding around the stalled joiner.

// corruptAllChunks returns a chunk hook that flips a byte of every served
// chunk, so the joiner's CRC check rejects every copy until the hook is
// removed.
func corruptAllChunks() func(types.ConfigID, int, []byte) []byte {
	return func(id types.ConfigID, idx int, data []byte) []byte {
		bad := append([]byte(nil), data...)
		if len(bad) == 0 {
			return []byte{0xff}
		}
		bad[0] ^= 0xff
		return bad
	}
}

// waitSpeculative polls until the node has learned at least one decided slot
// for a configuration whose snapshot it has not installed, and returns the
// stats sample that proved it (SnapshotsFetched is still zero in the same
// sample, so the decide unambiguously preceded the install).
func waitSpeculative(t *testing.T, n *Node) NodeStats {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		st := n.Stats()
		if st.SnapshotsFetched > 0 {
			t.Fatalf("snapshot installed before any speculative decide was observed: %+v", st)
		}
		if st.SpeculativeDecides > 0 {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("joiner never decided a slot while its transfer was in flight")
	return NodeStats{}
}

// TestSpeculativeDecidesDuringStalledTransfer is the acceptance check for
// speculative start: with every source serving corrupt chunks the joiner's
// transfer cannot complete, yet the joiner must decide slots of the new
// configuration (it is a voting member from the moment it learns of c+1).
// Once the sources behave, the parked decisions drain after the install and
// the joiner serves with correct state.
func TestSpeculativeDecidesDuringStalledTransfer(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond, Seed: 23})
	w.bootstrap(statemachine.NewKVMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	seedState(t, w, "n1", 64, 1024)

	for _, id := range []types.NodeID{"n1", "n2", "n3"} {
		setChunkHook(w.node(id), corruptAllChunks())
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

	// Load decided by the survivors while the joiner's transfer spins: the
	// joiner learns each decision speculatively and parks it.
	for i := 0; i < 8; i++ {
		w.submit("n1", "spec-writer", uint64(i+1), statemachine.EncodePut("spec-key", []byte("during-transfer")))
	}
	mid := waitSpeculative(t, spare)
	if mid.ChunkCRCRejected == 0 && mid.ChunksFetched == 0 {
		t.Fatalf("no transfer activity while speculating: %+v", mid)
	}

	for _, id := range []types.NodeID{"n1", "n2", "n3"} {
		setChunkHook(w.node(id), nil)
	}
	w.waitServing("n4")

	st := spare.Stats()
	if st.SpeculativeDecides == 0 {
		t.Fatal("SpeculativeDecides reset after install")
	}
	if st.SpeculativeParked == 0 {
		t.Fatal("no decisions were parked at install time; the speculative buffer never held the in-flight load")
	}
	if st.SnapshotsFetched != 1 {
		t.Fatalf("snapshot installs = %d, want 1", st.SnapshotsFetched)
	}
	// The parked writes must be visible through the joiner.
	reply := w.submit("n4", "spec-reader", 1, statemachine.EncodeGet("spec-key"))
	if got := string(statemachine.ReplyPayload(reply)); got != "during-transfer" {
		t.Fatalf("read via joiner = %q, want %q", got, "during-transfer")
	}
	w.checkNoViolations()
}

// TestSpeculativeJoinerCrashRecoversDecisions crashes the joiner mid-transfer
// after it has decided slots speculatively. The decisions are durable in the
// engine's acceptor/decided records, so the restarted joiner must redeliver
// them (parking them again), finish the transfer, and end with exactly-once
// state — the counter total must equal the sum of acknowledged adds.
func TestSpeculativeJoinerCrashRecoversDecisions(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond, Seed: 29})
	w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	var want uint64
	for i := 0; i < 4; i++ {
		w.submit("n1", "pre", uint64(i+1), statemachine.EncodeAdd(3))
		want += 3
	}

	hook := corruptAllChunks()
	for _, id := range []types.NodeID{"n1", "n2", "n3"} {
		setChunkHook(w.node(id), hook)
	}
	spare := w.startNode("n4", statemachine.NewCounterMachine)
	if err := spare.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := w.node("n1").Reconfigure(ctx, []types.NodeID{"n1", "n2", "n3", "n4"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		w.submit("n1", "mid", uint64(i+1), statemachine.EncodeAdd(5))
		want += 5
	}
	waitSpeculative(t, spare)

	// Kill the joiner with decisions parked and the transfer incomplete. The
	// sources keep corrupting, so the restarted joiner is back in the
	// speculative phase — and must re-learn its pre-crash decisions from its
	// own durable records (or the engine's redelivery), not lose them.
	restarted := w.crashRestart("n4", statemachine.NewCounterMachine)
	waitSpeculative(t, restarted)

	for _, id := range []types.NodeID{"n1", "n2", "n3"} {
		setChunkHook(w.node(id), nil)
	}
	w.waitServing("n4")

	// Exactly-once across crash + speculative redelivery + install: the
	// total reflects every acknowledged add exactly once — a decision applied
	// both from the snapshot and from the parked buffer would overshoot.
	reply := w.submit("n4", "post", 1, statemachine.EncodeCounterGet())
	got, _ := statemachine.DecodeUvarintReply(statemachine.ReplyPayload(reply))
	if got != want {
		t.Fatalf("counter via recovered joiner = %d, want %d", got, want)
	}
	w.submit("n4", "post", 2, statemachine.EncodeAdd(1))
	reply = w.submit("n4", "post", 3, statemachine.EncodeCounterGet())
	if got, _ := statemachine.DecodeUvarintReply(statemachine.ReplyPayload(reply)); got != want+1 {
		t.Fatalf("counter after post-install add = %d, want %d", got, want+1)
	}
	w.checkNoViolations()
}

// TestSpeculativeDecidesWhileSourceDead kills the joiner's only genuine
// transfer source mid-stream. The cluster must keep committing — the quorum
// of the new configuration includes the still-uninitialized joiner's votes —
// and once the remaining members serve honest chunks the transfer resumes
// and the joiner installs.
func TestSpeculativeDecidesWhileSourceDead(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond, Seed: 31})
	w.bootstrap(statemachine.NewKVMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	seedState(t, w, "n1", 512, 4096)

	// n2/n3 poison everything; n1 serves honestly for a partial transfer,
	// then holds replies hostage (and is then paused — a dead source).
	for _, id := range []types.NodeID{"n2", "n3"} {
		setChunkHook(w.node(id), corruptAllChunks())
	}
	const serveLimit = 8
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
			<-block
		}
		return data
	})

	spare := w.startNode("n4", statemachine.NewKVMachine)
	if err := spare.Start(); err != nil {
		t.Fatal(err)
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
	w.net.Endpoint("n1").Pause()

	// {n2, n3, n4} is a quorum of the 4-member configuration only because
	// the uninitialized joiner votes: these submissions committing is itself
	// the speculative-start property under a dead source.
	for i := 0; i < 6; i++ {
		w.submit("n2", "orphan", uint64(i+1), statemachine.EncodePut("orphan-key", []byte("decided-sourceless")))
	}
	waitSpeculative(t, spare)

	for _, id := range []types.NodeID{"n2", "n3"} {
		setChunkHook(w.node(id), nil)
	}
	w.waitServing("n4")

	checkKey(t, w, "n4", 1, "key-0000", 4096)
	checkKey(t, w, "n4", 2, "key-0511", 4096)
	reply := w.submit("n4", "checker", 3, statemachine.EncodeGet("orphan-key"))
	if got := string(statemachine.ReplyPayload(reply)); got != "decided-sourceless" {
		t.Fatalf("read via joiner = %q, want %q", got, "decided-sourceless")
	}
	w.checkNoViolations()
}

// TestSpeculativeReadsFencedUntilInstall pins the PR 3 interaction: a node in
// its speculative phase (engine deciding, snapshot not installed) must never
// answer a read — and a wedge arriving during that phase must keep it fenced.
// Every read attempt through the joiner has to redirect; its fast-read
// counter must stay zero throughout.
func TestSpeculativeReadsFencedUntilInstall(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond, Seed: 37})
	w.bootstrap(statemachine.NewKVMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	w.submit("n1", "writer", 1, statemachine.EncodePut("fence-key", []byte("v1")))

	for _, id := range []types.NodeID{"n1", "n2", "n3"} {
		setChunkHook(w.node(id), corruptAllChunks())
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
	w.submit("n1", "writer", 2, statemachine.EncodePut("fence-key", []byte("v2")))
	waitSpeculative(t, spare)

	tryRead := func(seq uint64) {
		t.Helper()
		rctx, rcancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer rcancel()
		reply, err := spare.Submit(rctx, "fenced-reader", seq, statemachine.EncodeGet("fence-key"))
		if err == nil {
			t.Fatalf("read served by a speculative-phase node: %q", statemachine.ReplyPayload(reply))
		}
		if !errors.Is(err, ErrNotServing) && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("unexpected read error: %v", err)
		}
	}
	tryRead(1)

	// Wedge c+1 while the joiner is still speculating on it: the successor
	// configuration excludes the joiner, so it must stay fenced forever
	// rather than serve c+1 state it never installed.
	if _, err := w.node("n1").Reconfigure(ctx, []types.NodeID{"n1", "n2", "n3"}); err != nil {
		t.Fatal(err)
	}
	w.submit("n1", "writer", 3, statemachine.EncodePut("fence-key", []byte("v3")))
	tryRead(2)

	if fast := spare.Stats().FastReads; fast != 0 {
		t.Fatalf("speculative-phase node served %d fast reads", fast)
	}
	// The surviving members moved on and serve the latest value.
	reply := w.submit("n1", "reader", 1, statemachine.EncodeGet("fence-key"))
	if got := string(statemachine.ReplyPayload(reply)); got != "v3" {
		t.Fatalf("read via survivor = %q, want %q", got, "v3")
	}
	for _, id := range []types.NodeID{"n1", "n2", "n3"} {
		setChunkHook(w.node(id), nil)
	}
	w.checkNoViolations()
}

// snapshotOf serializes a machine as a complete chunk set labelled with
// base — what a publish at that slot would have produced.
func snapshotOf(machine *statemachine.Sessioned, base types.Slot) (storage.ChunkManifest, [][]byte) {
	fork := machine.ForkSnapshot()
	chunks := make([][]byte, fork.NumChunks())
	m := storage.ChunkManifest{Format: statemachine.SnapshotFormat, Base: base, CRCs: make([]uint32, fork.NumChunks())}
	for i := range chunks {
		chunks[i] = fork.Chunk(i)
		m.CRCs[i] = storage.ChunkCRC(chunks[i])
	}
	return m, chunks
}

// TestInstallHonorsSnapshotBaseIndex is the table for the one install every
// snapshot goes through, over {uninitialized, initialized} × {base 0, base
// above the apply cursor, base at or below it}. Each row hand-installs a
// snapshot of configuration 2. Only a node without state installs, and only a
// configuration's state at slot 0: the apply cursor starts at 0, decisions
// parked during the transfer are all applied on top of it (the counter total
// is exact), and the install writes nothing to the store (the chunks got there
// incrementally, through the transfer). An initialized node holds its
// configuration's state already and refuses every install, and a base above 0
// — a mid-log checkpoint of an older version — is refused by everyone; a
// refusal moves nothing, counts nothing and writes nothing.
func TestInstallHonorsSnapshotBaseIndex(t *testing.T) {
	const (
		zero   = iota // the wedge snapshot: state at the start of config 2
		tip           // state and base of a survivor's apply cursor
		behind        // a base below the target's apply cursor
	)
	cases := []struct {
		name        string
		initialized bool // target: member n3 (true) or the stalled joiner n4
		base        int
		formats     []byte // retired format bytes installed in turn; nil keeps the machine's own
		installs    bool
	}{
		{name: "uninitialized/base-0", base: zero, installs: true},
		{name: "uninitialized/base-above", base: tip},
		{name: "uninitialized/reserved-format", base: zero, formats: []byte{2, 3}},
		{name: "initialized/base-0", initialized: true, base: zero},
		{name: "initialized/base-at-or-below", initialized: true, base: behind},
		{name: "initialized/base-above", initialized: true, base: tip},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond, Seed: 41})
			w.bootstrap(statemachine.NewCounterMachine, "n1", "n2", "n3")
			w.waitServing("n1", "n2", "n3")
			for _, id := range []types.NodeID{"n1", "n2", "n3"} {
				setChunkHook(w.node(id), corruptAllChunks())
			}
			spare := w.startNode("n4", statemachine.NewCounterMachine)
			if err := spare.Start(); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			if _, err := w.node("n1").Reconfigure(ctx, []types.NodeID{"n1", "n2", "n3", "n4"}); err != nil {
				t.Fatal(err)
			}
			target := spare
			if tc.initialized {
				target = w.node("n3")
				w.waitStat(func() bool { id, _ := target.AppliedSlot(); return id == 2 }, "n3 to reach config 2", 10*time.Second)
				if tc.base == tip {
					// Leave n3 behind: {n1, n2, n4-speculative} still decide.
					w.net.Isolate("n3")
				}
			}
			var want uint64
			for i := 0; i < 5; i++ {
				w.submit("n1", "base-writer", uint64(i+1), statemachine.EncodeAdd(7))
				want += 7
			}
			waitSpeculative(t, spare)

			// Quiesce: a survivor's machine together with its apply cursor
			// is exactly a snapshot at that base.
			var top types.Slot
			w.waitStat(func() bool {
				_, s1 := w.node("n1").AppliedSlot()
				time.Sleep(50 * time.Millisecond)
				id2, s2 := w.node("n1").AppliedSlot()
				top = s2
				return id2 == 2 && s1 == s2 && s2 > 0
			}, "survivor to quiesce in config 2", 10*time.Second)
			if tc.initialized && tc.base != tip {
				w.waitStat(func() bool { _, s := target.AppliedSlot(); return s >= top }, "n3 to apply everything", 10*time.Second)
			}

			var m storage.ChunkManifest
			var chunks [][]byte
			switch tc.base {
			case zero:
				var complete bool
				var err error
				if m, chunks, complete, err = storage.ReadChunked(w.stores["n1"], snapPrefix(2)); err != nil || !complete || m.Base != 0 {
					t.Fatalf("survivor's wedge snapshot: base %d complete %v err %v", m.Base, complete, err)
				}
			case tip:
				m, chunks = snapshotOf(w.node("n1").Machine(), top)
			case behind:
				m, chunks = snapshotOf(w.node("n1").Machine(), top-1)
			}
			_, cursorBefore := target.AppliedSlot()
			before := target.Stats()
			storeBefore, _, _, _ := storage.ReadChunked(w.stores[target.Self()], snapPrefix(2))

			for _, format := range tc.formats {
				m.Format = format
				if target.install(2, m, chunks) {
					t.Fatalf("install with format %d = true, want false", format)
				}
			}
			if tc.formats == nil {
				if got := target.install(2, m, chunks); got != tc.installs {
					t.Fatalf("install = %v, want %v", got, tc.installs)
				}
			}
			after := target.Stats()
			stored, _, complete, err := storage.ReadChunked(w.stores[target.Self()], snapPrefix(2))
			if err != nil {
				t.Fatal(err)
			}
			if !tc.installs {
				if _, at := target.AppliedSlot(); at != cursorBefore {
					t.Fatalf("refused install moved the apply cursor %d -> %d", cursorBefore, at)
				}
				if after.SnapshotsFetched != before.SnapshotsFetched {
					t.Fatalf("refused install was counted: %+v", after)
				}
				if want := before.InvariantViolations + int64(len(tc.formats)); after.InvariantViolations != want {
					t.Fatalf("unknown snapshot formats %v: violations %d -> %d, want %d", tc.formats, before.InvariantViolations, after.InvariantViolations, want)
				}
				if stored.Base != storeBefore.Base {
					t.Fatalf("refused install wrote the store: base %d -> %d", storeBefore.Base, stored.Base)
				}
				if tc.formats == nil {
					w.checkNoViolations()
				}
				return
			}

			if id, _ := target.AppliedSlot(); id != 2 {
				t.Fatalf("installed into configuration %d, want 2", id)
			}
			if after.SnapshotsFetched != 1 {
				t.Fatalf("joiner install miscounted: %+v", after)
			}
			if after.SpeculativeParked == 0 {
				t.Fatal("nothing was parked at install; the parked-decisions path was never exercised")
			}
			// install itself wrote nothing: every source corrupts, so the
			// joiner's transfer persisted a manifest and no chunk.
			if complete {
				t.Fatal("install wrote chunks to the store")
			}
			w.waitServing(target.Self())

			// Every parked decision is applied once over the slot-0 state:
			// re-applying one would overshoot the total, dropping one would
			// undershoot.
			via := target.Self()
			reply := w.submit(via, "base-reader", 1, statemachine.EncodeCounterGet())
			if got := counterValue(t, reply); got != want {
				t.Fatalf("counter via %s = %d, want %d (parked decisions re-applied past the base index?)", via, got, want)
			}
			w.submit(via, "base-reader", 2, statemachine.EncodeAdd(2))
			reply = w.submit(via, "base-reader", 3, statemachine.EncodeCounterGet())
			if got := counterValue(t, reply); got != want+2 {
				t.Fatalf("counter after post-install add = %d, want %d", got, want+2)
			}
			for _, id := range []types.NodeID{"n1", "n2", "n3"} {
				setChunkHook(w.node(id), nil)
			}
			w.checkNoViolations()
		})
	}
}

// TestSpeculativeAcceptFullReplacement covers the client-facing half of
// speculative start: in a FULL member replacement no successor member can
// install until the transfer completes, yet under SpecOn every one of them
// accepts submissions — the command is ordered by the speculative engine
// while the snapshot streams, and the reply stays parked until the install.
// Without speculative accept nothing can even be proposed in c+1 until the
// first install, which is exactly the availability window the paper's
// optimization closes.
func TestSpeculativeAcceptFullReplacement(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond, Seed: 37})
	w.bootstrap(statemachine.NewKVMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	seedState(t, w, "n1", 64, 1024)

	for _, id := range []types.NodeID{"n1", "n2", "n3"} {
		setChunkHook(w.node(id), corruptAllChunks())
	}
	joiners := []types.NodeID{"n4", "n5", "n6"}
	for _, id := range joiners {
		n := w.startNode(id, statemachine.NewKVMachine)
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := w.node("n1").Reconfigure(ctx, joiners); err != nil {
		t.Fatal(err)
	}

	// Wait until every joiner has learned it is a member of c+1 (the
	// announce is asynchronous); only then does its submit gate park rather
	// than redirect.
	learned := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for _, id := range joiners {
			if w.node(id).CurrentConfig().ID != 2 {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(learned) {
			t.Fatal("joiners never learned the successor configuration")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Submit straight to an uninitialized joiner. The call must not redirect:
	// it parks until the install, so it is still in flight when the joiner's
	// speculative decide is observed below.
	done := make(chan error, 1)
	go func() {
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		_, err := w.node("n4").Submit(sctx, "full-writer", 1, statemachine.EncodePut("full-key", []byte("before-install")))
		done <- err
	}()

	waitSpeculative(t, w.node("n4"))
	select {
	case err := <-done:
		t.Fatalf("reply fired while the snapshot was still in flight (err=%v)", err)
	default:
	}

	for _, id := range []types.NodeID{"n1", "n2", "n3"} {
		setChunkHook(w.node(id), nil)
	}
	w.waitServing(joiners...)
	if err := <-done; err != nil {
		t.Fatalf("parked submission failed after install: %v", err)
	}
	reply := w.submit("n5", "full-reader", 1, statemachine.EncodeGet("full-key"))
	if got := string(statemachine.ReplyPayload(reply)); got != "before-install" {
		t.Fatalf("read via joiner = %q, want %q", got, "before-install")
	}
	w.checkNoViolations()
}

// TestSpecOffUninitializedRedirects pins the ablation's client contract: with
// SpeculativeStart = SpecOff an uninitialized member must redirect, not park.
func TestSpecOffUninitializedRedirects(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond, Seed: 41})
	w.opts.SpeculativeStart = SpecOff
	w.bootstrap(statemachine.NewKVMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	seedState(t, w, "n1", 64, 1024)

	for _, id := range []types.NodeID{"n1", "n2", "n3"} {
		setChunkHook(w.node(id), corruptAllChunks())
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

	sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
	_, err := spare.Submit(sctx, "off-writer", 1, statemachine.EncodePut("k", []byte("v")))
	scancel()
	if !errors.Is(err, ErrNotServing) {
		t.Fatalf("submit to uninitialized SpecOff member: err = %v, want ErrNotServing redirect", err)
	}
	if st := spare.Stats(); st.SpeculativeDecides != 0 {
		t.Fatalf("SpecOff joiner decided speculatively: %+v", st)
	}

	for _, id := range []types.NodeID{"n1", "n2", "n3"} {
		setChunkHook(w.node(id), nil)
	}
	w.waitServing("n4")
	w.checkNoViolations()
}
