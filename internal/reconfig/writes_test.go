package reconfig

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// Tests of the one write discipline: above internal/storage every write is
// staged, and a barrier is taken only where something is promised, never
// under Node.mu.

// stuckStore models a disk whose flushes hang: once a write to a key under
// trigger has been seen, Set and Delete (durable writes) and Sync block until
// open is closed, while staged writes still land, as in a page cache.
type stuckStore struct {
	*storage.MemStore
	trigger string
	open    chan struct{}
	shut    atomic.Bool
}

func newStuckStore(trigger string) *stuckStore {
	return &stuckStore{MemStore: storage.NewMem(), trigger: trigger, open: make(chan struct{})}
}

func (s *stuckStore) note(key string) {
	if strings.HasPrefix(key, s.trigger) {
		s.shut.Store(true)
	}
}

func (s *stuckStore) flush() {
	if s.shut.Load() {
		<-s.open
	}
}

func (s *stuckStore) Set(key string, value []byte) error {
	s.note(key)
	s.flush()
	return s.MemStore.Set(key, value)
}

func (s *stuckStore) SetBuffered(key string, value []byte) error {
	s.note(key)
	return s.MemStore.SetBuffered(key, value)
}

func (s *stuckStore) Delete(key string) error {
	s.flush()
	return s.MemStore.Delete(key)
}

func (s *stuckStore) Sync() error {
	s.flush()
	return s.MemStore.Sync()
}

// TestStuckFsyncLeavesNodeAnswering hangs the disk of two nodes at the moment
// each writes a chain record — n3 as it applies the reconfiguration that
// removes it, the spare s1 as it takes the announce that adds it — and keeps
// it hung. Neither may hold Node.mu across a flush, so submits to both must
// still be answered (with a redirect: n3 is retired, s1 has no state yet and
// does not start speculatively), while n1 and n2 keep serving configuration 2.
// Nor may either node's loop wait on the disk: it keeps ticking at its
// period, and it integrates a chain record handed to it — configuration 3,
// which n1 and n2 move on to — and jumps there.
func TestStuckFsyncLeavesNodeAnswering(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond, Seed: 71})
	w.opts.SpeculativeStart = SpecOff
	stuck := map[types.NodeID]*stuckStore{
		"n3": newStuckStore("rc/chain/"),
		"s1": newStuckStore("rc/chain/"),
	}
	defer func() {
		for _, s := range stuck {
			close(s.open)
		}
	}()
	w.newStore = func(id types.NodeID) storage.Store {
		if s, ok := stuck[id]; ok {
			return s
		}
		return storage.NewMem()
	}
	w.bootstrap(statemachine.NewKVMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	if err := w.startNode("s1", statemachine.NewKVMachine).Start(); err != nil {
		t.Fatal(err)
	}
	w.submit("n1", "c1", 1, statemachine.EncodePut("k", []byte("v1")))

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := w.node("n1").Reconfigure(ctx, []types.NodeID{"n1", "n2", "s1"}); err != nil {
		t.Fatal(err)
	}
	for id, s := range stuck {
		w.waitStat(s.shut.Load, string(id)+"'s chain record", 10*time.Second)
	}

	for _, id := range []types.NodeID{"n3", "s1"} {
		done := make(chan error, 1)
		go func(n *Node) {
			sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer scancel()
			_, err := n.Submit(sctx, "c2", 1, statemachine.EncodeGet("k"))
			done <- err
		}(w.node(id))
		select {
		case err := <-done:
			if !errors.Is(err, ErrNotServing) {
				t.Errorf("submit to %s with its disk stuck: %v, want a redirect", id, err)
			}
		case <-time.After(3 * time.Second):
			t.Errorf("submit to %s with its disk stuck went unanswered: a flush is holding Node.mu", id)
		}
	}

	ticks := func(n *Node) int64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.tick
	}
	before := map[types.NodeID]int64{"n3": ticks(w.node("n3")), "s1": ticks(w.node("s1"))}
	time.Sleep(300 * time.Millisecond)
	for id, was := range before {
		if got := ticks(w.node(id)) - was; got < 20 {
			t.Errorf("%s's loop ticked %d times in 300 ms with its disk stuck, want >= 20", id, got)
		}
	}
	if _, err := w.node("n1").Reconfigure(ctx, []types.NodeID{"n1", "n2"}); err != nil {
		t.Fatal(err)
	}
	var rec ChainRecord
	for _, r := range w.node("n1").ChainRecords() {
		if r.From == 2 {
			rec = r
		}
	}
	for id := range stuck {
		done := make(chan struct{})
		go func(n *Node) {
			n.handleAnnounce(rec)
			close(done)
		}(w.node(id))
		select {
		case <-done:
			if cur := w.node(id).CurrentConfig().ID; cur != 3 {
				t.Errorf("%s integrated the record of configuration 3 and is in %d", id, cur)
			}
		case <-time.After(3 * time.Second):
			t.Errorf("a chain record handed to %s with its disk stuck was never integrated: its loop waits on the disk", id)
		}
	}
	w.submit("n1", "c1", 2, statemachine.EncodePut("k", []byte("v2")))
}

// TestStartWaitsOnNoDisk holds every flush shut from the moment Bootstrap
// stages rc/init. The Start of three bootstrapped base-0 members, and of one
// of them restarted from its base-0 store, must return all the same: a boot
// waits on no barrier (an engine's first one waits on its own goroutine).
func TestStartWaitsOnNoDisk(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond, Seed: 43})
	var held []*stuckStore
	shut := func(mem *storage.MemStore) *stuckStore {
		s := &stuckStore{MemStore: mem, trigger: "rc/init", open: make(chan struct{})}
		held = append(held, s)
		return s
	}
	openAll := func() {
		for _, s := range held {
			if s.shut.Swap(false) {
				close(s.open)
			}
		}
	}
	t.Cleanup(openAll) // before the world stops its nodes, whose engines may wait on a flush
	w.newStore = func(types.NodeID) storage.Store { return shut(storage.NewMem()) }
	start := func(n *Node) {
		done := make(chan error, 1)
		go func() { done <- n.Start() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Start waited on a held flush", n.Self())
		}
	}

	members := []types.NodeID{"n1", "n2", "n3"}
	for _, id := range members {
		if err := w.startNode(id, statemachine.NewKVMachine).Bootstrap(types.MustConfig(1, members...)); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range members {
		if !held[i].shut.Load() {
			t.Fatalf("%s: Bootstrap staged no rc/init", id)
		}
		start(w.node(id))
	}
	openAll()
	w.waitServing(members...)

	w.stopNode("n1")
	w.mu.Lock()
	s := shut(w.stores["n1"].(*stuckStore).MemStore)
	s.shut.Store(true)
	w.stores["n1"] = s
	w.mu.Unlock()
	start(w.startNode("n1", statemachine.NewKVMachine))
	openAll()
	w.submit("n1", "c1", 1, statemachine.EncodePut("k", []byte("v")))
}

// probeStore counts, on a WAL store, the durable writes and barriers its
// node's snapshot transfer makes, and every one made while the node's mutex
// is held. A write to a key outside rc/ — the engine's first, after the
// install — ends the count.
type probeStore struct {
	*storage.WALStore
	node atomic.Pointer[Node]

	mu       sync.Mutex
	done     bool
	durable  int   // Set and Delete calls: each is its own fsync on a SyncWrites store
	fsyncs   int64 // WAL fsyncs, Set's included
	underMu  []string
	baseline int64
}

// lockFree reports whether the node's mutex could be taken within a second:
// a write made while the caller holds it cannot.
func (p *probeStore) lockFree() bool {
	n := p.node.Load()
	if n == nil {
		return true
	}
	got := make(chan struct{})
	go func() {
		n.mu.Lock()
		n.mu.Unlock()
		close(got)
	}()
	select {
	case <-got:
		return true
	case <-time.After(time.Second):
		return false
	}
}

func (p *probeStore) observe(op, key string, durable bool) {
	// Staging never waits on the disk; only the others must stay off mu.
	free := op == "stage" || p.lockFree()
	p.mu.Lock()
	defer p.mu.Unlock()
	if !free {
		p.underMu = append(p.underMu, op+" "+key)
	}
	if p.done {
		return
	}
	if op != "sync" && !strings.HasPrefix(key, "rc/") {
		p.done = true
		p.fsyncs = p.WALStore.Syncs() - p.baseline
		return
	}
	if durable {
		p.durable++
	}
}

func (p *probeStore) Set(key string, value []byte) error {
	p.observe("set", key, true)
	return p.WALStore.Set(key, value)
}

func (p *probeStore) SetBuffered(key string, value []byte) error {
	p.observe("stage", key, false)
	return p.WALStore.SetBuffered(key, value)
}

func (p *probeStore) Delete(key string) error {
	p.observe("delete", key, true)
	return p.WALStore.Delete(key)
}

func (p *probeStore) Sync() error {
	p.observe("sync", "", false)
	return p.WALStore.Sync()
}

// rangesFor is how many range replies a fetch of chunks of these sizes takes
// when no request fails: the manifest reply's lead, then every missing span
// packed up to rangeBudget, as snapChunkRange packs it.
func rangesFor(sizes []int) int {
	pack := func(first, end int) int {
		total, i := 0, first
		for ; i < end; i++ {
			if i > first && total+sizes[i] > rangeBudget {
				break
			}
			total += sizes[i]
		}
		return i
	}
	lead := pack(0, len(sizes))
	have := make([][]byte, len(sizes))
	for i := 0; i < lead; i++ {
		have[i] = []byte{}
	}
	ranges := 1
	for _, sp := range missingSpans(have) {
		for i, end := sp.first, sp.first+sp.count; i < end; ranges++ {
			i = pack(i, end)
		}
	}
	return ranges
}

// TestTransferFsyncBudget: a joiner fetching a 33-chunk snapshot onto a WAL
// store opened in sync mode pays one fsync per range reply, plus one before
// the install, and none with Node.mu held. It stages the chain record, the
// manifest and every chunk; a durable Set per chunk would be 34 fsyncs.
func TestTransferFsyncBudget(t *testing.T) {
	w := newWorld(t, transport.Options{BaseLatency: 100 * time.Microsecond, Seed: 73})
	// The joiner's engine starts at the install, so every write before it is
	// the transfer's.
	w.opts.SpeculativeStart = SpecOff
	w.bootstrap(statemachine.NewKVMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")
	seedState(t, w, "n1", 256, 4096)

	wal, err := storage.OpenWALStore(filepath.Join(t.TempDir(), "n4"), storage.WALStoreOptions{SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	probe := &probeStore{WALStore: wal}
	w.newStore = func(types.NodeID) storage.Store { return probe }
	joiner := w.startNode("n4", statemachine.NewKVMachine)
	probe.node.Store(joiner)
	if err := joiner.Start(); err != nil {
		t.Fatal(err)
	}
	probe.mu.Lock()
	probe.baseline = wal.Syncs()
	probe.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := w.node("n1").Reconfigure(ctx, []types.NodeID{"n1", "n2", "n3", "n4"}); err != nil {
		t.Fatal(err)
	}
	w.waitServing("n4")
	w.submit("n1", "seeder", 1000, statemachine.EncodePut("after", []byte("join")))
	w.waitStat(func() bool { probe.mu.Lock(); defer probe.mu.Unlock(); return probe.done }, "the joiner's engine to write", 10*time.Second)

	_, chunks, complete, err := storage.ReadChunked(wal, snapPrefix(2))
	if err != nil || !complete || len(chunks) != 33 {
		t.Fatalf("joiner's snapshot: %d chunks, complete %v, err %v; want 33 complete", len(chunks), complete, err)
	}
	sizes := make([]int, len(chunks))
	for i, c := range chunks {
		sizes[i] = len(c)
	}
	ranges := rangesFor(sizes)
	st := joiner.Stats()
	probe.mu.Lock()
	defer probe.mu.Unlock()
	t.Logf("33-chunk join: %d range replies, %d fsyncs, %d durable writes; %d chunk retries", ranges, probe.fsyncs, probe.durable, st.ChunkRetries)
	if probe.durable != 0 {
		t.Errorf("transfer made %d durable writes, want every write staged", probe.durable)
	}
	switch {
	case st.ChunkRetries != 0 || st.ChunkCRCRejected != 0:
		// A round that came back short fetches its rest in ranges the
		// count above does not know of.
		t.Logf("transfer retried (%d rounds, %d rejected chunks): fsyncs per range not checked", st.ChunkRetries, st.ChunkCRCRejected)
	case probe.fsyncs > int64(ranges)+1:
		t.Errorf("transfer cost %d fsyncs, want at most one per range reply plus one (%d)", probe.fsyncs, ranges+1)
	}
	if len(probe.underMu) > 0 {
		t.Errorf("durable writes or barriers with Node.mu held: %v", probe.underMu)
	}
}

// fuseStore cuts the power (MemStore.PowerLoss) right after the cut-th
// staged write to a key under rc/ — a chain record, a snapshot manifest or
// chunk — and closes blown. cut 0 never fires.
type fuseStore struct {
	*storage.MemStore
	mu    sync.Mutex
	cut   int
	seen  int
	blown chan struct{}
}

func (f *fuseStore) SetBuffered(key string, value []byte) error {
	if err := f.MemStore.SetBuffered(key, value); err != nil {
		return err
	}
	if !strings.HasPrefix(key, "rc/") {
		return nil
	}
	f.mu.Lock()
	f.seen++
	hit := f.cut > 0 && f.seen == f.cut
	f.mu.Unlock()
	if hit {
		f.MemStore.PowerLoss()
		close(f.blown)
	}
	return nil
}

// TestTransferPowerCutSweep cuts a joiner's power after each staged write of
// its fetch of a checkpoint (base > 0): the chain record, the manifest and
// each of the 33 chunks, fetched over several range replies. After each cut
// the restarted joiner resumes from what survived or fetches again, and in
// every case installs a complete snapshot. Whatever base the joiner had
// announced to its peers when the power went, its store still holds.
func TestTransferPowerCutSweep(t *testing.T) {
	const writes = 1 + 1 + 33 // chain record, manifest, chunks
	stride := 1
	if testing.Short() {
		stride = 5
	}
	// Past the fetch's writes the fuse no longer blows and the cut falls
	// after the install, which ends the sweep.
	for cut := 1; ; cut++ {
		if cut <= writes && (cut-1)%stride != 0 {
			continue
		}
		if cut > 2*writes {
			t.Fatalf("the fetch staged more than %d writes", 2*writes)
		}
		finished := false
		t.Run(fmt.Sprintf("cut%02d", cut), func(t *testing.T) { finished = powerCutJoin(t, cut) })
		if finished || t.Failed() {
			return
		}
	}
}

// powerCutJoin runs one join with the fuse set to cut, and reports whether
// the fuse never blew because the fetch had fewer staged writes.
func powerCutJoin(t *testing.T, cut int) bool {
	t.Helper()
	w := newWorld(t, transport.Options{BaseLatency: 50 * time.Microsecond, Seed: int64(80 + cut)})
	w.opts = ckptOpts(w.opts)
	w.opts.SpeculativeStart = SpecOff
	fuse := &fuseStore{MemStore: storage.NewMem(), blown: make(chan struct{})}
	w.newStore = func(id types.NodeID) storage.Store {
		if id == "n4" {
			return fuse
		}
		return storage.NewMem()
	}
	w.bootstrap(statemachine.NewKVMachine, "n1", "n2", "n3")
	w.waitServing("n1", "n2", "n3")

	// Configuration 2 takes n4, checkpoints past its wedge snapshot and
	// truncates, all before n4 runs: the only snapshot of 2 to fetch has a
	// base > 0, and it spans several range replies.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := w.node("n1").Reconfigure(ctx, []types.NodeID{"n1", "n2", "n3", "n4"}); err != nil {
		t.Fatal(err)
	}
	seedState(t, w, "n1", 40, 16<<10)
	w.waitStat(func() bool { return w.node("n1").Stats().CheckpointBase > 0 }, "a checkpoint of configuration 2", 10*time.Second)
	var rec ChainRecord
	for _, r := range w.node("n1").ChainRecords() {
		if r.From == 1 {
			rec = r
		}
	}

	fuse.cut = cut
	joiner := w.startNode("n4", statemachine.NewKVMachine)
	if err := joiner.Start(); err != nil {
		t.Fatal(err)
	}
	joiner.handleAnnounce(rec)

	// announced is the highest base of n4's that a peer has recorded.
	announced := func() types.Slot {
		var best types.Slot
		for _, id := range []types.NodeID{"n1", "n2", "n3"} {
			n := w.node(id)
			n.mu.Lock()
			if n.ckptCfg == 2 && n.ckptPeerBase["n4"] > best {
				best = n.ckptPeerBase["n4"]
			}
			n.mu.Unlock()
		}
		return best
	}
	blown := func() bool {
		select {
		case <-fuse.blown:
			return true
		default:
			return false
		}
	}
	finished := false
	for deadline := time.Now().Add(15 * time.Second); !blown(); time.Sleep(2 * time.Millisecond) {
		if joiner.Stats().CheckpointBase > 0 && announced() > 0 {
			// The fetch had fewer staged writes than cut: cut the power
			// now, after the install and its announce.
			fuse.MemStore.PowerLoss()
			finished = true
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cut %d: the joiner neither installed nor reached the cut", cut)
		}
	}
	peerBase := announced()
	joiner.Stop()
	w.mu.Lock()
	delete(w.nodes, "n4")
	w.mu.Unlock()
	fuse.MemStore.Reopen()
	fuse.mu.Lock()
	fuse.cut = 0
	fuse.mu.Unlock()

	m, _, complete, err := storage.ReadChunked(fuse.MemStore, snapPrefix(2))
	if peerBase > 0 && (err != nil || !complete || m.Base < peerBase) {
		t.Fatalf("cut %d: peers hold n4's base %d, its store after the cut has base %d complete %v (err %v)", cut, peerBase, m.Base, complete, err)
	}
	resumed := err == nil && m.Chunks() > 0

	restarted := w.startNode("n4", statemachine.NewKVMachine)
	if err := restarted.Start(); err != nil {
		t.Fatal(err)
	}
	restarted.handleAnnounce(rec)
	w.waitServing("n4")
	st := restarted.Stats()
	if st.CheckpointBase == 0 {
		t.Fatalf("cut %d: the restarted joiner runs on no checkpoint", cut)
	}
	checkKey(t, w, "n4", 1, "key-0000", 16<<10)
	checkKey(t, w, "n4", 2, "key-0039", 16<<10)
	w.checkNoViolations()
	t.Logf("cut %d: peers held base %d; restart resumed %v, fetched %d chunks", cut, peerBase, resumed, st.ChunksFetched)
	return finished
}
