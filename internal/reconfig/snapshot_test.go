package reconfig

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/smr"
	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// Tests for the stages of the snapshot pipeline that the transfer, compaction
// and speculative-start suites do not already cover: retire, the in-memory
// copy served while a commit writes the stored blob, and recovery of a store
// laid out by an earlier version of this code.

// snapshotsHeld counts the snapshot manifests in a node's store.
func snapshotsHeld(t *testing.T, st storage.Store) int {
	t.Helper()
	kvs, err := st.Scan("rc/snap/")
	if err != nil {
		t.Fatal(err)
	}
	held := 0
	for _, kv := range kvs {
		if strings.HasSuffix(kv.Key, "/meta") {
			held++
		}
	}
	return held
}

// TestSnapshotRetireKeepsCurrentAndPredecessor chains six reconfigurations
// through a rotating membership and asserts the pipeline's last stage: every
// store — members, retired members that follow the chain by gossip — ends up
// holding at most the current configuration's snapshot and its
// predecessor's, and a spare that starts late still finds a source, joins and
// serves the full state.
func TestSnapshotRetireKeepsCurrentAndPredecessor(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond, Seed: 53})
	w.bootstrap(statemachine.NewKVMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	seedState(t, w, "n1", 64, 1024)

	pool := []types.NodeID{"n1", "n2", "n3", "s1", "s2"}
	for _, id := range pool[3:] {
		if err := w.startNode(id, statemachine.NewKVMachine).Start(); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	members := []types.NodeID{"n1", "n2", "n3"}
	const reconfigs = 6
	for i := 0; i < reconfigs; i++ {
		// Replace the longest-serving member with the longest-idle node.
		joiner := pool[(i+3)%len(pool)]
		next := append(append([]types.NodeID(nil), members[1:]...), joiner)
		// A member of two consecutive configurations serves in the older one
		// until its own log delivers the wedge; proposing from there would
		// name the wrong successor ID.
		proposer := w.node(members[1])
		w.waitStat(func() bool { return proposer.CurrentConfig().ID == types.ConfigID(1+i) }, "proposer to reach the newest configuration", 10*time.Second)
		if _, err := proposer.Reconfigure(ctx, next); err != nil {
			t.Fatalf("reconfiguration %d to %v: %v", i+1, next, err)
		}
		w.waitServing(next...)
		members = next
	}
	if got := w.node(members[0]).CurrentConfig().ID; got != 1+reconfigs {
		t.Fatalf("current configuration %d, want %d", got, 1+reconfigs)
	}

	w.waitStat(func() bool {
		for _, id := range pool {
			if snapshotsHeld(t, w.stores[id]) > 2 {
				return false
			}
		}
		return true
	}, "every store to retire all but two snapshots", 15*time.Second)
	for _, id := range members {
		// A member's own current snapshot is what its restart recovers from.
		if _, _, complete, err := storage.ReadChunked(w.stores[id], snapPrefix(1+reconfigs)); err != nil || !complete {
			t.Fatalf("%s: current snapshot complete=%v err=%v", id, complete, err)
		}
	}

	late := w.startNode("s9", statemachine.NewKVMachine)
	if err := late.Start(); err != nil {
		t.Fatal(err)
	}
	w.waitStat(func() bool { return w.node(members[0]).CurrentConfig().ID == 1+reconfigs }, "proposer to reach the newest configuration", 10*time.Second)
	if _, err := w.node(members[0]).Reconfigure(ctx, append(append([]types.NodeID(nil), members...), "s9")); err != nil {
		t.Fatal(err)
	}
	w.waitServing("s9")
	checkKey(t, w, "s9", 1, "key-0000", 1024)
	checkKey(t, w, "s9", 2, "key-0063", 1024)
	w.checkNoViolations()
}

// gateStore blocks the writer of one chunk key until released, freezing a
// commit half-way through overwriting a blob, and calls frozen first. While
// the writer is parked it records every read of the blob's manifest and every
// delete of a key under watch.
type gateStore struct {
	storage.Store
	prefix string // the blob to freeze
	after  int    // chunk writes let through before the one frozen
	watch  string // keys whose deletion before the release is recorded

	mu            sync.Mutex
	armed         bool
	seen          int
	frozen        func()        // called by the writer before it parks
	blocked       chan struct{} // closed when the writer is parked
	release       chan struct{}
	manifestReads int
	deletedFrozen []string
}

// parked reports whether the writer is parked.
func (g *gateStore) parked() bool {
	select {
	case <-g.blocked:
	default:
		return false
	}
	select {
	case <-g.release:
		return false
	default:
		return true
	}
}

func (g *gateStore) Get(key string) ([]byte, bool, error) {
	if key == storage.ManifestKey(g.prefix) && g.parked() {
		g.mu.Lock()
		g.manifestReads++
		g.mu.Unlock()
	}
	return g.Store.Get(key)
}

func (g *gateStore) Delete(key string) error {
	if g.watch != "" && strings.HasPrefix(key, g.watch) {
		select {
		case <-g.release:
		default:
			g.mu.Lock()
			g.deletedFrozen = append(g.deletedFrozen, key)
			g.mu.Unlock()
		}
	}
	return g.Store.Delete(key)
}

const gateAfterChunks = 5

func (g *gateStore) Set(key string, value []byte) error {
	if strings.HasPrefix(key, g.prefix+"/c/") {
		g.mu.Lock()
		hit := false
		if g.armed {
			g.seen++
			hit = g.seen == g.after+1
		}
		frozen := g.frozen
		g.mu.Unlock()
		if hit {
			if frozen != nil {
				frozen()
			}
			close(g.blocked)
			<-g.release
		}
	}
	return g.Store.Set(key, value)
}

// TestCheckpointCommitServedFromMemory freezes a member committing the
// snapshot a log-bound wedge produced — at its first chunk write, or half-way
// through, when the store holds some of its chunks and no manifest — and lets
// a joiner whose only source is that member start fetching right then. The
// member must answer from the in-memory copy of the snapshot from before the
// commit's first write on: the frozen writer finds the copy served, no
// manifest is read from the store while it is parked, and the joiner sees one
// consistent (manifest, chunks) pair: zero CRC rejections, and an install
// while the commit is still frozen.
func TestCheckpointCommitServedFromMemory(t *testing.T) {
	for _, tc := range []struct {
		name  string
		after int
	}{{"first-chunk", 0}, {"mid-blob", gateAfterChunks}} {
		t.Run(tc.name, func(t *testing.T) { testCommitServedFromMemory(t, tc.after) })
	}
}

func testCommitServedFromMemory(t *testing.T, after int) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond, Seed: 59})
	w.opts.logBound = 60
	gate := &gateStore{
		Store:   storage.NewMem(),
		prefix:  snapPrefix(3),
		after:   after,
		blocked: make(chan struct{}),
		release: make(chan struct{}),
	}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate.release) }) }
	defer release()
	w.newStore = func(id types.NodeID) storage.Store {
		if id == "n1" {
			return gate
		}
		return storage.NewMem()
	}
	w.bootstrap(statemachine.NewKVMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	n1 := w.node("n1")

	spare := w.startNode("n4", statemachine.NewKVMachine)
	if err := spare.Start(); err != nil {
		t.Fatal(err)
	}
	w.net.Isolate("n4") // it learns of configurations 2 and 3 only once healed
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := n1.Reconfigure(ctx, []types.NodeID{"n1", "n2", "n3", "n4"}); err != nil {
		t.Fatal(err)
	}
	servedAtFreeze := false
	gate.mu.Lock()
	gate.armed = true
	gate.frozen = func() {
		reply := make(chan []byte, 1)
		n1.handleRPC("probe", encodeSnapMeta(snapMetaReq{Config: 3}), func(b []byte) { reply <- b })
		mr, err := decodeSnapMetaReply(<-reply)
		servedAtFreeze = err == nil && mr.Found
	}
	gate.mu.Unlock()

	// Enough load in configuration 2 to cross the log bound once: its wedge
	// starts configuration 3, whose snapshot n1 freezes committing.
	seedState(t, w, "n1", 64, 1024)
	select {
	case <-gate.blocked:
	case <-time.After(15 * time.Second):
		t.Fatal("n1 never started committing the snapshot of configuration 3")
	}
	if !servedAtFreeze {
		t.Fatal("n1 started writing the snapshot of configuration 3 before serving it from memory")
	}
	if m, _, _, _ := storage.ReadChunked(gate.Store, snapPrefix(3)); m.Chunks() != 0 {
		t.Fatal("store mid-commit holds a manifest; want chunks alone")
	}

	w.net.Restore("n4")
	w.net.BlockLink("n4", "n2")
	w.net.BlockLink("n4", "n3")
	w.waitServing("n4")
	if id := spare.CurrentConfig().ID; id != 3 {
		t.Fatalf("joiner serves configuration %d, want 3", id)
	}
	if st := spare.Stats(); st.ChunkCRCRejected != 0 {
		t.Fatalf("joiner rejected %d chunks: it was served a half-written blob", st.ChunkCRCRejected)
	}
	if _, _, complete, err := storage.ReadChunked(w.stores["n4"], snapPrefix(3)); err != nil || !complete {
		t.Fatalf("joiner's store: complete %v err %v; want the snapshot", complete, err)
	}
	gate.mu.Lock()
	reads := gate.manifestReads
	gate.mu.Unlock()
	if reads != 0 {
		t.Fatalf("n1 read the manifest of configuration 3 from its store %d times mid-commit", reads)
	}

	release()
	w.net.UnblockLink("n4", "n2")
	w.net.UnblockLink("n4", "n3")
	w.waitStat(func() bool {
		_, _, complete, err := storage.ReadChunked(gate.Store, snapPrefix(3))
		return err == nil && complete
	}, "n1 to finish the commit", 10*time.Second)
	checkKey(t, w, "n4", 1, "key-0000", 1024)
	checkKey(t, w, "n4", 2, "key-0063", 1024)
	w.checkNoViolations()
}

// TestFrozenCommitHoldsOnlyItsOwnRetire freezes n1 half-way through
// committing the snapshot of configuration 3 and drives two more bound wedges
// past it, so that 3 is retired on n1 while its commit is still writing. The
// commits of 4 and 5 must not wait for it, rc/snap/3 must not be deleted under
// the frozen commit, and once the commit is released its snapshot must be
// retired within a few ticks.
func TestFrozenCommitHoldsOnlyItsOwnRetire(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond, Seed: 61})
	w.opts.logBound = 30
	gate := &gateStore{
		Store:   storage.NewMem(),
		prefix:  snapPrefix(3),
		after:   gateAfterChunks,
		watch:   snapPrefix(3) + "/",
		armed:   true,
		blocked: make(chan struct{}),
		release: make(chan struct{}),
	}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate.release) }) }
	defer release()
	w.newStore = func(id types.NodeID) storage.Store {
		if id == "n1" {
			return gate
		}
		return storage.NewMem()
	}
	w.bootstrap(statemachine.NewKVMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	n1 := w.node("n1")

	// Load until n1 executes configuration 5: the bound wedges 1→2, 2→3,
	// 3→4 and 4→5 on the way, the second of which starts the frozen commit.
	val := make([]byte, 1024)
	deadline := time.Now().Add(30 * time.Second)
	for seq := uint64(1); n1.CurrentConfig().ID < 5; seq++ {
		if time.Now().After(deadline) {
			t.Fatalf("n1 reached configuration %d, want 5", n1.CurrentConfig().ID)
		}
		w.submit("n1", "loader", seq, statemachine.EncodePut(fmt.Sprintf("key-%04d", seq%64), val))
	}
	select {
	case <-gate.blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("n1 never started committing the snapshot of configuration 3")
	}
	for _, id := range []types.ConfigID{4, 5} {
		w.waitStat(func() bool {
			_, _, complete, err := storage.ReadChunked(gate.Store, snapPrefix(id))
			return err == nil && complete
		}, fmt.Sprintf("n1's snapshot of configuration %d to become durable beside the frozen commit", id), 10*time.Second)
	}
	// Configuration 3 is retired on n1 now; give the tick time to act on it.
	time.Sleep(30 * retryInterval)
	gate.mu.Lock()
	deleted := gate.deletedFrozen
	gate.mu.Unlock()
	if len(deleted) > 0 {
		t.Fatalf("rc/snap/3 deleted under its frozen commit: %v", deleted)
	}

	release()
	w.waitStat(func() bool {
		kvs, err := gate.Store.Scan(snapPrefix(3) + "/")
		return err == nil && len(kvs) == 0
	}, "n1 to retire the snapshot of configuration 3 once its commit ended", 30*retryInterval)
	w.checkNoViolations()
}

// TestStartRecoversParentLayoutStore pins disk compatibility with stores
// written key by key the way the previous version laid them out. A member
// holding a base-0 wedge snapshot (plus an older one nothing ever deleted)
// and a joiner that crashed with the manifest and half its chunks persisted
// are recovered by Start exactly as before. A member holding a base-57
// within-configuration checkpoint is the stated layout break: the log below
// the checkpoint is gone and this version keeps no mid-log state, so Start
// refuses the store with smr.ErrOldLayout.
func TestStartRecoversParentLayoutStore(t *testing.T) {
	// The state every fixture holds: a counter at 42, reached by one session.
	machine := statemachine.NewSessioned(statemachine.NewCounterMachine())
	machine.ApplyCommand(types.Command{Kind: types.CmdApp, Client: "c", Seq: 1, Data: statemachine.EncodeAdd(42)})
	fork := machine.ForkSnapshot()

	cfg1 := types.MustConfig(1, "n1", "n2", "n3")
	cfg2 := types.MustConfig(2, "n1", "n2", "n3")
	lay := func(st storage.Store, id uint64, base uint64, chunks int) {
		t.Helper()
		// <prefix>/meta = format byte | uvarint base | uvarint count | uvarint CRC...
		meta := []byte{statemachine.SnapshotFormat}
		meta = binary.AppendUvarint(meta, base)
		meta = binary.AppendUvarint(meta, uint64(fork.NumChunks()))
		for i := 0; i < fork.NumChunks(); i++ {
			meta = binary.AppendUvarint(meta, uint64(storage.ChunkCRC(fork.Chunk(i))))
		}
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(st.Set(fmt.Sprintf("rc/snap/%020d/meta", id), meta))
		for i := 0; i < chunks; i++ {
			must(st.Set(fmt.Sprintf("rc/snap/%020d/c/%06d", id, i), fork.Chunk(i)))
		}
		must(st.Set("rc/init", types.EncodeConfig(cfg1)))
		if id == 2 {
			rec := ChainRecord{From: 1, FromMembers: cfg1.Members, WedgeSlot: 9, To: cfg2}
			must(st.Set(fmt.Sprintf("rc/chain/%020d", 1), encodeChainRecord(rec)))
		}
	}

	cases := []struct {
		name    string
		config  uint64
		base    uint64
		chunks  int // chunk keys present
		serving bool
		refused bool
	}{
		{name: "wedge-snapshot", config: 2, base: 0, chunks: fork.NumChunks(), serving: true},
		{name: "checkpoint", config: 1, base: 57, chunks: fork.NumChunks(), refused: true},
		{name: "half-fetched-joiner", config: 2, base: 0, chunks: fork.NumChunks() / 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, transport.Options{})
			st := storage.NewMem()
			if tc.config == 2 {
				lay(st, 1, 0, fork.NumChunks()) // the leftover nothing used to delete
			}
			lay(st, tc.config, tc.base, tc.chunks)
			w.stores["n1"] = st
			n := w.startNode("n1", statemachine.NewCounterMachine)
			if err := n.Start(); tc.refused {
				if !errors.Is(err, smr.ErrOldLayout) {
					t.Fatalf("Start over a base-%d checkpoint: %v, want %v", tc.base, err, smr.ErrOldLayout)
				}
				return
			} else if err != nil {
				t.Fatal(err)
			}
			if got := n.Serving(); got != tc.serving {
				t.Fatalf("serving = %v, want %v", got, tc.serving)
			}
			if id, applied := n.AppliedSlot(); uint64(id) != tc.config || applied != 0 {
				t.Fatalf("recovered at (cfg %d, slot %d), want (cfg %d, slot 0)", id, applied, tc.config)
			}
			if tc.serving {
				// Served from the session table of the recovered machine.
				reply, err := n.Submit(context.Background(), "c", 1, statemachine.EncodeAdd(42))
				if err != nil || counterValue(t, reply) != 42 {
					t.Fatalf("recovered counter: reply %v err %v, want 42", reply, err)
				}
			} else if _, cs, _, err := storage.ReadChunked(st, snapPrefix(2)); err != nil || len(missingSpans(cs)) == 0 {
				t.Fatalf("half-fetched chunks must survive Start for the transfer to resume from (err %v)", err)
			}
			w.checkNoViolations()
		})
	}
}

// TestBootstrapFsyncBudget: a new instance's initial state — an empty
// snapshot of 33 chunks, its manifest and the init record — costs no fsync on
// a store where every Set waits for its own: Bootstrap stages it all, and the
// engine's start-of-loop group commit makes it durable before the engine's
// first promise, vote or decision. (One fsynced Set per chunk made it 35, a
// third of the time a durable deployment took to start; a barrier before the
// manifest and the manifest's and rc/init's own fsyncs made it 3.)
func TestBootstrapFsyncBudget(t *testing.T) {
	w := newWorld(t, transport.Options{})
	dirs := make(map[types.NodeID]string)
	stores := make(map[types.NodeID]*storage.WALStore)
	w.newStore = func(id types.NodeID) storage.Store {
		dirs[id] = t.TempDir()
		s, err := storage.OpenWALStore(dirs[id], storage.WALStoreOptions{SyncWrites: true})
		if err != nil {
			t.Fatal(err)
		}
		stores[id] = s
		return s
	}
	cfg := types.MustConfig(1, "n1", "n2", "n3")
	for _, id := range cfg.Members {
		n := w.startNode(id, statemachine.NewKVMachine)
		st := stores[id]
		before := st.Syncs()
		if err := n.Bootstrap(cfg); err != nil {
			t.Fatal(err)
		}
		if got := st.Syncs() - before; got != 0 {
			t.Fatalf("%s: Bootstrap cost %d fsyncs, want 0", id, got)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("Bootstrap: 0 fsyncs, %d records", stores["n1"].Appends())
	w.waitServing(cfg.Members...)
	w.submit("n1", "c1", 1, statemachine.EncodePut("k", []byte("v")))

	// Every engine has passed its first barrier; a copy of each log, as a
	// crash would leave it, recovers the initial state.
	for _, id := range cfg.Members {
		st := stores[id]
		w.waitStat(func() bool { return st.Syncs() > 0 }, string(id)+"'s first group commit", 5*time.Second)
		cp := t.TempDir()
		files, _ := filepath.Glob(filepath.Join(dirs[id], "wal-*"))
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(cp, filepath.Base(f)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		r, err := storage.OpenWALStore(cp, storage.WALStoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := r.Get("rc/init"); err != nil || !ok {
			t.Fatalf("%s: reopened log has no rc/init (err %v)", id, err)
		}
		if m, _, complete, err := storage.ReadChunked(r, snapPrefix(1)); err != nil || !complete || m.Chunks() == 0 {
			t.Fatalf("%s: reopened initial snapshot: chunks=%d complete=%v err=%v", id, m.Chunks(), complete, err)
		}
		_ = r.Close()
	}
}

// TestBootstrapPowerLoss: Bootstrap waits on no barrier, so a power loss
// before Start leaves the store as if it never ran — the node comes back an
// idle spare, and Bootstrap again recovers it. Once the engine has committed
// a put, a power loss restarts the node into configuration 1 without one.
func TestBootstrapPowerLoss(t *testing.T) {
	w := newWorld(t, transport.Options{})
	w.powerLoss = true
	cfg := types.MustConfig(1, "n1", "n2", "n3")
	n1 := w.startNode("n1", statemachine.NewKVMachine)
	if err := n1.Bootstrap(cfg); err != nil {
		t.Fatal(err)
	}
	mem := w.stores["n1"].(*storage.MemStore)
	mem.PowerLoss()
	mem.Reopen()
	if k := mem.Len(); k != 0 {
		t.Fatalf("a power loss before the first barrier left %d stable keys, want none", k)
	}
	spare := w.startNode("n1", statemachine.NewKVMachine)
	if err := spare.Start(); err != nil {
		t.Fatal(err)
	}
	if id := spare.CurrentConfig().ID; id != 0 {
		t.Fatalf("restarted into configuration %d, want an idle spare", id)
	}
	spare.Stop()

	for _, id := range cfg.Members {
		n := w.startNode(id, statemachine.NewKVMachine)
		if err := n.Bootstrap(cfg); err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	w.waitServing(cfg.Members...)
	w.submit("n1", "c1", 1, statemachine.EncodePut("k", []byte("v1")))

	n1 = w.crashRestart("n1", statemachine.NewKVMachine)
	if id := n1.CurrentConfig().ID; id != 1 {
		t.Fatalf("restarted into configuration %d after a committed put, want 1", id)
	}
	w.waitServing("n1")
	w.submit("n1", "c1", 2, statemachine.EncodePut("k", []byte("v2")))
	w.checkNoViolations()
}
