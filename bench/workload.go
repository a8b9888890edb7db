package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/reconfig"
	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// workloadSpec is one traffic mix. Everything not named here is the same on
// every workload: three members n1..n3, the KV machine, cluster.FastOptions
// timing with every other reconfig.Options field at its default (but see
// nodeOptions), one shared client.Directory, closed-loop sessions with
// default client.Options.
type workloadSpec struct {
	Name     string
	Why      string
	Sessions int
	ReadPct  int  // share of ops issued as Client.Read, in percent
	Durable  bool // fsynced WAL stores on disk instead of mem stores, and no within-configuration checkpoints
	Churn    bool // 8 MB preloaded, three spares, a reconfiguration every 400 ms
}

var workloads = []workloadSpec{
	{
		Name: "steady-write", Sessions: 2,
		Why: "100% puts on mem stores: the CPU path of a committed write (client, rpc, transport, reconfig, paxos) with storage bypassed",
	},
	{
		Name: "durable-write", Sessions: 8, Durable: true,
		Why: "100% puts on fsynced WAL stores, 8 in flight: storage (append, fsync, group commit) does most of the work",
	},
	{
		Name: "read-mostly", Sessions: 2, ReadPct: 90,
		Why: "90% reads served by read-index rounds without log append or storage, so a write-path gain that costs the read path shows",
	},
	{
		Name: "reconfig-churn", Sessions: 2, Churn: true,
		Why: "puts while a member is replaced every 400 ms with 8 MB of state: wedge, chunked transfer, speculative start, snapshot/restore",
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

const (
	keysPerSession = 1000
	valueLen       = 64
	warmup         = 2 * time.Second
	drainAfter     = 5 * time.Second // an op unresolved this long after the window counts as failed

	// What the phases without a length of their own may take; the watchdog
	// allows each phaseSlack more.
	setUpLimit    = 30 * time.Second
	readBackLimit = 60 * time.Second
	tearDownLimit = 20 * time.Second
	reportLimit   = 20 * time.Second
	probeLimit    = 60 * time.Second
	phaseSlack    = 10 * time.Second
	gapThreshold  = 5 * time.Millisecond
	sampleEvery   = 64 // one client op in this many gets a span on a traced run

	churnEvery    = 400 * time.Millisecond
	preloadKeys   = 8000
	preloadValue  = 1024
	preloadLoader = 8 // sessions that write and later verify the preload
)

var (
	members = []types.NodeID{"n1", "n2", "n3"}
	spares  = []types.NodeID{"s1", "s2", "s3"}
)

// service is one running deployment: the fabric, the nodes, the stores the
// benchmark handed them, and the client directory all sessions share.
type service struct {
	net    *transport.Network
	nodes  map[types.NodeID]*reconfig.Node
	wals   []*storage.WALStore // closed with the service
	traced []*tracedStore      // empty on an untraced run
	dir    *client.Directory
	tmpDir string
	closed sync.Once
}

// nodeOptions is cluster.FastOptions, with the within-configuration
// checkpoints off on fsynced stores. With them on, every node stops
// acknowledging for 2-4 s each 4096 slots (housekeeping calls
// paxos.TruncateBelow holding the node mutex, and that issues one fsynced
// Delete per released slot), clients retransmit into the stall, and about one
// 25 s run in fifty then deadlocks for good: transport.Network.send holds the
// network mutex across a socket write that blocks on a full buffer, while the
// read loop that would drain it waits for the same mutex (and, seen earlier, a
// read-index callback on the stalled engine loop waits for the node mutex
// housekeeping holds). Both are the program's to fix; a benchmark run must not
// fail, so until then durable-write measures append, fsync and group commit
// without log truncation.
func nodeOptions(spec workloadSpec) reconfig.Options {
	opts := cluster.FastOptions()
	opts.NoCheckpoints = spec.Durable
	return opts
}

// handStore decides what a node is handed for its store: the bare store on
// an untraced run, the decorator around it only on a traced one.
func handStore(bare storage.Store, id types.NodeID, tr *tracer) (storage.Store, *tracedStore) {
	if tr == nil {
		return bare, nil
	}
	return traceStore(bare, string(id), tr)
}

// startService boots the deployment: the initial members bootstrapped and
// started, spares (churn only) started idle.
func startService(spec workloadSpec, initial []types.NodeID, tr *tracer) (*service, error) {
	sv := &service{
		net:   transport.NewTCPNetwork(transport.Options{}), // loopback TCP, no injected delay, loss or jitter
		nodes: make(map[types.NodeID]*reconfig.Node),
	}
	all := initial
	if spec.Churn {
		all = append(append([]types.NodeID(nil), initial...), spares...)
	}
	if spec.Durable {
		dir, err := makeTempDir(spec.Name)
		if err != nil {
			sv.close()
			return nil, err
		}
		sv.tmpDir = dir
	}
	cfg, err := types.NewConfig(1, initial)
	if err != nil {
		sv.close()
		return nil, err
	}
	for _, id := range all {
		var bare storage.Store = storage.NewMem()
		if spec.Durable {
			w, err := storage.OpenWALStore(filepath.Join(sv.tmpDir, string(id)), storage.WALStoreOptions{SyncWrites: true})
			if err != nil {
				sv.close()
				return nil, err
			}
			sv.wals = append(sv.wals, w)
			bare = w
		}
		handed, ts := handStore(bare, id, tr)
		if ts != nil {
			sv.traced = append(sv.traced, ts)
		}
		n, err := reconfig.NewNode(reconfig.NodeConfig{
			Self:     id,
			Endpoint: sv.net.Endpoint(id),
			Store:    handed,
			Factory:  statemachine.NewKVMachine,
			Opts:     nodeOptions(spec),
		})
		if err != nil {
			sv.close()
			return nil, err
		}
		sv.nodes[id] = n
		if cfg.IsMember(id) {
			if err := n.Bootstrap(cfg); err != nil {
				sv.close()
				return nil, err
			}
		}
		if err := n.Start(); err != nil {
			sv.close()
			return nil, err
		}
	}
	sv.dir = client.NewDirectory(sv.net.Endpoint("bench-client"), initial)
	return sv, nil
}

// close stops everything and removes the WAL directory. Later calls do nothing.
func (sv *service) close() { sv.closed.Do(sv.shutdown) }

func (sv *service) shutdown() {
	if sv.dir != nil {
		sv.dir.Close()
	}
	for _, n := range sv.nodes {
		n.Stop()
	}
	sv.net.Close()
	for _, w := range sv.wals {
		_ = w.Close() // the directory is removed next; nothing to keep
	}
	if sv.tmpDir != "" {
		removeTempDir(sv.tmpDir)
	}
}

// nodeTotals are the NodeStats fields the per-layer metrics use, summed (or,
// for high-water marks, maximised) over every node of the deployment.
type nodeTotals struct {
	duplicates, resubmits, violations         int64
	fastReads, readFallbacks, readFenced      int64
	droppedInbound, applyStalls, groupCommits int64
	specDecides, shed, checkpoints, truncated int64
	chunksFetched, chunkRetries               int64
	applyQueueHigh, submitQueueHigh           int64
}

func (sv *service) nodeTotals() nodeTotals {
	var t nodeTotals
	for _, n := range sv.nodes {
		st := n.Stats()
		t.duplicates += st.Duplicates
		t.resubmits += st.Resubmits
		t.violations += st.InvariantViolations
		t.fastReads += st.FastReads
		t.readFallbacks += st.ReadFallbacks
		t.readFenced += st.ReadFenced
		t.droppedInbound += st.DroppedInbound
		t.applyStalls += st.ApplyStalls
		t.groupCommits += st.GroupCommits
		t.specDecides += st.SpeculativeDecides
		t.shed += st.ShedSubmits
		t.checkpoints += st.CheckpointsPublished
		t.truncated += st.TruncatedSlots
		t.chunksFetched += st.ChunksFetched
		t.chunkRetries += st.ChunkRetries
		t.applyQueueHigh = max(t.applyQueueHigh, st.ApplyQueueHighWater)
		t.submitQueueHigh = max(t.submitQueueHigh, st.SubmitQueueHigh)
	}
	return t
}

// counters is everything read from public counters at one instant.
type counters struct {
	nodes  nodeTotals
	net    transport.Stats
	client client.Stats
	adopts int64
	stores []storeCounts
}

func (sv *service) counters(sessions []*session) counters {
	c := counters{nodes: sv.nodeTotals(), net: sv.net.Stats(), adopts: sv.dir.Stats().Adopts}
	for _, s := range sessions {
		st := s.cl.Stats()
		c.client.Submits += st.Submits
		c.client.Reads += st.Reads
		c.client.Attempts += st.Attempts
		c.client.Redirects += st.Redirects
		c.client.Busy += st.Busy
	}
	for _, ts := range sv.traced {
		c.stores = append(c.stores, ts.counts())
	}
	return c
}

// makeValue fills buf with the value session writes to key at its seq-th put.
// The triple is embedded so that a read-back names the write it saw.
func makeValue(buf []byte, session, key int, seq uint64) []byte {
	binary.LittleEndian.PutUint64(buf[0:], uint64(session))
	binary.LittleEndian.PutUint64(buf[8:], uint64(key))
	binary.LittleEndian.PutUint64(buf[16:], seq)
	for i := 24; i < len(buf); i++ {
		buf[i] = byte(seq) + byte(i)
	}
	return buf
}

// session is one closed-loop client: it owns a disjoint key range, so every
// read must return exactly the value of its own last acknowledged put.
type session struct {
	idx  int
	cl   *client.Client
	rng  *rand.Rand
	keys []string
	gets [][]byte // the encoded Get op of each key

	last   []uint64 // seq embedded in the last acknowledged put of each key; 0 = never written
	unsure []bool   // a put to this key failed, so either value may be there
	puts   uint64
	valBuf []byte // the value being written
	cmpBuf []byte // the value a read is compared with

	callStart, callEnd time.Time // around the last client call

	// Measured-window records.
	ops       []opRec // acknowledged inside the window; ack times are ns since the run's origin
	reads     int64   // reads acknowledged inside the window
	attempted int64   // ops issued from the window start on
	failed    int64   // of those, the ones that returned an error
	wrong     int64   // reads (any phase) that returned anything but the last acknowledged value
}

func newSession(sv *service, idx int, seed int64) *session {
	s := &session{
		idx:    idx,
		cl:     sv.dir.Session(types.NodeID(fmt.Sprintf("bench-s%02d", idx)), client.Options{}),
		rng:    rand.New(rand.NewSource(seed*1000003 + int64(idx))),
		keys:   make([]string, keysPerSession),
		gets:   make([][]byte, keysPerSession),
		last:   make([]uint64, keysPerSession),
		unsure: make([]bool, keysPerSession),
		valBuf: make([]byte, valueLen),
		cmpBuf: make([]byte, valueLen),
		ops:    make([]opRec, 0, 1<<16),
	}
	for k := range s.keys {
		s.keys[k] = fmt.Sprintf("s%02d/k%04d", idx, k)
		s.gets[k] = statemachine.EncodeGet(s.keys[k])
	}
	return s
}

// put writes the next value to key k and records it as expected on success.
func (s *session) put(ctx context.Context, k int) error {
	s.puts++
	op := statemachine.EncodePut(s.keys[k], makeValue(s.valBuf, s.idx, k, s.puts))
	s.callStart = time.Now()
	reply, err := s.cl.Submit(ctx, op)
	s.callEnd = time.Now()
	if err == nil && statemachine.ReplyStatus(reply) != statemachine.StatusOK {
		err = fmt.Errorf("put %s: status %s", s.keys[k], statemachine.ReplyStatus(reply))
	}
	if err != nil {
		s.unsure[k] = true
		return err
	}
	s.last[k] = s.puts
	return nil
}

// get reads key k through the read path and checks the reply.
func (s *session) get(ctx context.Context, k int) error {
	s.callStart = time.Now()
	reply, err := s.cl.Read(ctx, s.gets[k])
	s.callEnd = time.Now()
	if err != nil {
		return err
	}
	if !s.unsure[k] && !replyMatches(reply, makeValue(s.cmpBuf, s.idx, k, s.last[k]), s.last[k] > 0) {
		s.wrong++
	}
	return nil
}

// replyMatches reports whether a Get reply is what a linearizable service
// must return to the only writer of the key: not-found before its first
// acknowledged put, otherwise exactly the value of its last acknowledged one.
func replyMatches(reply, want []byte, written bool) bool {
	switch statemachine.ReplyStatus(reply) {
	case statemachine.StatusNotFound:
		return !written
	case statemachine.StatusOK:
		return written && bytes.Equal(statemachine.ReplyPayload(reply), want)
	default:
		return false
	}
}

// phases are the instants that divide a run.
type phases struct {
	origin time.Time // ack times are ns since this
	start  time.Time // measured window opens (warm-up before it is discarded)
	end    time.Time // measured window closes
}

// run is the closed loop: the next op is issued when the previous reply has
// arrived, until the window closes. The op in flight at that moment has until
// end+drainAfter to resolve.
func (s *session) run(spec workloadSpec, ph phases, tr *tracer) {
	ctx, cancel := context.WithDeadline(context.Background(), ph.end.Add(drainAfter))
	defer cancel()
	for n := 0; ; n++ {
		t0 := time.Now()
		if !t0.Before(ph.end) {
			return
		}
		k := s.rng.Intn(keysPerSession)
		isRead := spec.ReadPct > 0 && s.rng.Intn(100) < spec.ReadPct
		var err error
		if isRead {
			err = s.get(ctx, k)
		} else {
			err = s.put(ctx, k)
		}
		if tr != nil && n%sampleEvery == 0 {
			name := "client.Submit"
			if isRead {
				name = "client.Read"
			}
			root := tr.add("op", t0, time.Now(), 0, "")
			tr.add(name, s.callStart, s.callEnd, root, "")
		}
		if t0.Before(ph.start) {
			continue
		}
		s.attempted++
		if err != nil {
			s.failed++
			continue
		}
		if s.callEnd.Before(ph.end) {
			s.ops = append(s.ops, opRec{ack: s.callEnd.Sub(ph.origin).Nanoseconds(), lat: s.callEnd.Sub(s.callStart).Nanoseconds()})
			if isRead {
				s.reads++
			}
		}
	}
}

// readBack reads every key of the session through the client after the window
// and returns how many did not hold the last acknowledged value, and how many
// reads failed outright.
func (s *session) readBack(ctx context.Context) (wrong, failed int64) {
	before := s.wrong
	for k := range s.keys {
		if err := s.get(ctx, k); err != nil {
			failed++
		}
	}
	return s.wrong - before, failed
}

// readBackAll runs every session's read-back, the sessions side by side.
func readBackAll(ctx context.Context, sessions []*session) (wrong, failed int64) {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for _, s := range sessions {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			w, f := s.readBack(ctx)
			mu.Lock()
			wrong += w
			failed += f
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	return wrong, failed
}

// preloadValueFor is the 1 KiB value of preload key i under seed.
func preloadValueFor(seed int64, i int) []byte {
	v := make([]byte, preloadValue)
	binary.LittleEndian.PutUint64(v[0:], uint64(seed))
	binary.LittleEndian.PutUint64(v[8:], uint64(i))
	for j := 16; j < len(v); j++ {
		v[j] = byte(i) + byte(j)
	}
	return v
}

// preload writes (verify=false) or reads back and checks (verify=true) the
// churn workload's 8 MB of state, split over a few loader sessions. It returns
// the number of ops that failed and of values that were wrong.
func preload(ctx context.Context, sv *service, seed int64, verify bool) (failed, wrong int64) {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for l := 0; l < preloadLoader; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			name := "load"
			if verify {
				name = "check"
			}
			cl := sv.dir.Session(types.NodeID(fmt.Sprintf("bench-%s%d", name, l)), client.Options{})
			var f, w int64
			for i := l; i < preloadKeys; i += preloadLoader {
				key := fmt.Sprintf("pre/%05d", i)
				want := preloadValueFor(seed, i)
				if !verify {
					reply, err := cl.Submit(ctx, statemachine.EncodePut(key, want))
					if err != nil || statemachine.ReplyStatus(reply) != statemachine.StatusOK {
						f++
					}
					continue
				}
				reply, err := cl.Read(ctx, statemachine.EncodeGet(key))
				switch {
				case err != nil:
					f++
				case statemachine.ReplyStatus(reply) != statemachine.StatusOK || !bytes.Equal(statemachine.ReplyPayload(reply), want):
					w++
				}
			}
			mu.Lock()
			failed += f
			wrong += w
			mu.Unlock()
		}(l)
	}
	wg.Wait()
	return failed, wrong
}

// reconfigEvent is one membership change driven by the churn controller.
type reconfigEvent struct {
	call   time.Time // Client.Reconfigure called
	done   time.Time // Client.Reconfigure returned
	joined time.Time // the joiner's WaitServing returned
	err    error
}

// churn replaces the longest-serving member with the longest-idle spare every
// churnEvery, from the start of warm-up until the window closes, so that the
// window sees the steady state of a service under continuous reconfiguration.
func churn(sv *service, ctl *client.Client, from time.Time, ph phases) []reconfigEvent {
	ctx, cancel := context.WithDeadline(context.Background(), ph.end.Add(drainAfter))
	defer cancel()
	in := append([]types.NodeID(nil), members...)
	idle := append([]types.NodeID(nil), spares...)
	var events []reconfigEvent
	for next := from; ; next = next.Add(churnEvery) {
		if now := time.Now(); now.Before(next) {
			time.Sleep(next.Sub(now))
		} else {
			next = now // the previous change overran its slot: no catching up
		}
		if !time.Now().Before(ph.end) {
			return events
		}
		joiner, leaver := idle[0], in[0]
		target := append(append([]types.NodeID(nil), in[1:]...), joiner)
		ev := reconfigEvent{call: time.Now()}
		_, ev.err = ctl.Reconfigure(ctx, target)
		ev.done = time.Now()
		if ev.err == nil {
			ev.err = sv.nodes[joiner].WaitServing(ctx)
		}
		ev.joined = time.Now()
		events = append(events, ev)
		if ev.err != nil {
			return events
		}
		in, idle = target, append(idle[1:], leaver)
	}
}

// --- temp dirs and exit paths ------------------------------------------------

var (
	tempMu   sync.Mutex
	tempDirs = map[string]bool{}
	outDir   = "out"
)

// makeTempDir creates a directory for WAL stores under the benchmark's own
// output directory (inside the checkout, on whatever disk that is).
func makeTempDir(label string) (string, error) {
	root := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", fmt.Errorf("temp dir: %w", err)
	}
	dir, err := os.MkdirTemp(root, label+"-*")
	if err != nil {
		return "", fmt.Errorf("temp dir: %w", err)
	}
	tempMu.Lock()
	tempDirs[dir] = true
	tempMu.Unlock()
	return dir, nil
}

func removeTempDir(dir string) {
	_ = os.RemoveAll(dir) // best effort: a leftover is inside out/, which is ignored
	tempMu.Lock()
	delete(tempDirs, dir)
	tempMu.Unlock()
}

// removeAllTempDirs runs on every exit path that skips deferred calls: the
// watchdog, a fatal error, a signal.
func removeAllTempDirs() {
	tempMu.Lock()
	dirs := make([]string, 0, len(tempDirs))
	for d := range tempDirs {
		dirs = append(dirs, d)
	}
	tempMu.Unlock()
	for _, d := range dirs {
		removeTempDir(d)
	}
}
