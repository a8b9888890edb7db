package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/paxos"
	"repro/internal/reconfig"
	"repro/internal/rpc"
	"repro/internal/smr"
	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// probesName is the pseudo-workload that runs the layer probes, the only
// place they run; running everything starts it once, in a child process of
// its own.
const probesName = "probes"

// probeFor is the measuring time of each probe.
const probeFor = 2 * time.Second

// probeTimeout bounds every wait inside a probe.
const probeTimeout = 10 * time.Second

var errProbeTimeout = errors.New("timed out")

// probeSet collects the results of the isolated layer probes. Each probe has
// one caller and measures one layer through its public functions.
type probeSet struct {
	per time.Duration
	out map[string]metric
}

func (ps *probeSet) put(name string, v float64, unit string, samples int) {
	ps.out[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// each calls op for ps.per and returns the ascending durations of the calls.
func (ps *probeSet) each(op func() error) ([]int64, error) {
	var d []int64
	for stop := time.Now().Add(ps.per); time.Now().Before(stop); {
		t := time.Now()
		if err := op(); err != nil {
			return nil, err
		}
		d = append(d, time.Since(t).Nanoseconds())
	}
	slices.Sort(d)
	return d, nil
}

// perCall is for calls too short to time one by one: it times batches of a
// thousand for ps.per and returns the median ns per call.
func (ps *probeSet) perCall(op func(i int)) (float64, int) {
	const batch = 1000
	var means []float64
	n := 0
	for stop := time.Now().Add(ps.per); time.Now().Before(stop); {
		t := time.Now()
		for i := 0; i < batch; i++ {
			op(n + i)
		}
		means = append(means, float64(time.Since(t).Nanoseconds())/batch)
		n += batch
	}
	return medianF(means), n
}

// runProbes runs every probe once, per long each, and derives the budget.
func runProbes(per time.Duration, tr *tracer) (map[string]metric, error) {
	ps := &probeSet{per: per, out: map[string]metric{}}
	probes := []struct {
		name string
		run  func() error
	}{
		{"types", ps.codec},
		{"transport", ps.transport},
		{"rpc", ps.rpc},
		{"storage", ps.wal},
		{"statemachine.apply", ps.apply},
		{"statemachine.snapshot", ps.snapshot},
		{"paxos.mem", func() error { return ps.paxos(false) }},
		{"paxos.wal", func() error { return ps.paxos(true) }},
		{"paxos.elect", ps.elect},
		{"reconfig.n3", func() error { return ps.nodeSubmit(members, "reconfig.submit_us_p50") }},
		{"reconfig.n1", func() error { return ps.nodeSubmit(members[:1], "reconfig.single_node_submit_us_p50") }},
		{"client", ps.client},
	}
	for _, p := range probes {
		enterPhase("probe "+p.name, probeLimit)
		start := time.Now()
		if err := p.run(); err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		tr.add("probe."+p.name, start, time.Now(), 0, "")
	}
	// What a client write costs beyond the layers measured in isolation: the
	// time a later in-program tracing issue goes hunting in.
	o := ps.out
	total := o["client.submit_us_p50"].Value
	rest := total - o["rpc.call_us_p50"].Value - o["paxos.slot_us_p50"].Value - o["statemachine.apply_ns"].Value/1000
	ps.put("budget.unattributed_us", rest, "us", 0)
	ps.put("budget.unattributed_frac", ratio(rest, total), "frac", 0)
	return ps.out, nil
}

// probeRun is the whole run of the probes pseudo-workload.
func probeRun(seed int64) (*runResult, *tracer, error) {
	tr := newTracer(processStart)
	probes, err := runProbes(probeFor, tr)
	if err != nil {
		return nil, nil, err
	}
	return &runResult{
		Workload: probesName, Seed: seed, Traced: true, Correct: true, Attempted: 1,
		EndToEnd: map[string]metric{}, Diag: map[string]metric{}, PerLayer: probes,
	}, tr, nil
}

func putOp(i int) []byte {
	return statemachine.EncodePut(fmt.Sprintf("probe/k%04d", i%keysPerSession), make([]byte, valueLen))
}

func (ps *probeSet) codec() error {
	cmd := types.Command{Kind: types.CmdApp, Client: "bench-probe", Seq: 1, Data: putOp(0)}
	var decodeErr error
	ns, n := ps.perCall(func(i int) {
		cmd.Seq = uint64(i + 1)
		if _, err := types.DecodeCommand(types.EncodeCommand(cmd)); err != nil {
			decodeErr = err
		}
	})
	ps.put("types.cmd_codec_ns", ns, "ns", n)
	return decodeErr
}

// transport: Endpoint.Send ping, the peer's handler sends the pong.
func (ps *probeSet) transport() error {
	net := transport.NewTCPNetwork(transport.Options{})
	defer net.Close()
	a, b := net.Endpoint("pa"), net.Endpoint("pb")
	const stream, ping, pong = 7, 1, 2
	got := make(chan struct{}, 1)
	b.Handle(stream, func(from types.NodeID, _ uint64, _ uint8, payload []byte) {
		_ = b.Send(from, stream, pong, payload) // a lost pong shows as the probe's timeout
	})
	a.Handle(stream, func(types.NodeID, uint64, uint8, []byte) { got <- struct{}{} })
	payload := make([]byte, valueLen)
	d, err := ps.each(func() error {
		if err := a.Send("pb", stream, ping, payload); err != nil {
			return err
		}
		select {
		case <-got:
			return nil
		case <-time.After(probeTimeout):
			return errProbeTimeout
		}
	})
	if err != nil {
		return err
	}
	ps.put("transport.rtt_us_p50", us(percentile(d, 50)), "us", len(d))
	return nil
}

// rpc: Peer.Call against an echo handler on the same fabric.
func (ps *probeSet) rpc() error {
	net := transport.NewTCPNetwork(transport.Options{})
	defer net.Close()
	const stream = 9
	caller := rpc.NewPeer(net.Endpoint("pa"), stream, nil)
	defer caller.Close()
	echo := rpc.NewPeer(net.Endpoint("pb"), stream, func(_ types.NodeID, req []byte, respond func([]byte)) { respond(req) })
	defer echo.Close()
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout+ps.per)
	defer cancel()
	req := make([]byte, valueLen)
	d, err := ps.each(func() error {
		_, err := caller.Call(ctx, "pb", req, 0)
		return err
	})
	if err != nil {
		return err
	}
	ps.put("rpc.call_us_p50", us(percentile(d, 50)), "us", len(d))
	return nil
}

// wal: the fsynced WAL store alone, which is also the record of the disk the
// run saw.
func (ps *probeSet) wal() error {
	dir, err := makeTempDir("probe-wal")
	if err != nil {
		return err
	}
	defer removeTempDir(dir)
	st, err := storage.OpenWALStore(dir, storage.WALStoreOptions{SyncWrites: true})
	if err != nil {
		return err
	}
	defer st.Close()
	val := make([]byte, 128)
	i := 0
	appendSync := func(n int) func() error {
		return func() error {
			for j := 0; j < n; j++ {
				i++
				if err := st.SetBuffered(fmt.Sprintf("w/%08d", i), val); err != nil {
					return err
				}
			}
			return st.Sync()
		}
	}
	one, err := ps.each(appendSync(1))
	if err != nil {
		return err
	}
	ps.put("storage.wal_append_sync_us_p50", us(percentile(one, 50)), "us", len(one))
	group, err := ps.each(appendSync(16))
	if err != nil {
		return err
	}
	ps.put("storage.wal_group16_sync_us_p50", us(percentile(group, 50)), "us", len(group))
	// A Delete on a SyncWrites store waits for its own fsync: what
	// paxos.TruncateBelow pays once per released slot.
	next := 0
	del, err := ps.each(func() error {
		next++
		if next > i {
			return errors.New("ran out of keys to delete")
		}
		return st.Delete(fmt.Sprintf("w/%08d", next))
	})
	if err != nil {
		return err
	}
	ps.put("storage.wal_delete_sync_us_p50", us(percentile(del, 50)), "us", len(del))
	return nil
}

func (ps *probeSet) apply() error {
	m := statemachine.NewSessioned(statemachine.NewKVMachine())
	cmd := types.Command{Kind: types.CmdApp, Client: "bench-probe", Data: putOp(0)}
	ns, n := ps.perCall(func(i int) {
		cmd.Seq = uint64(i + 1) // always fresh: executes
		m.ApplyCommand(cmd)
	})
	ps.put("statemachine.apply_ns", ns, "ns", n)
	dup, n := ps.perCall(func(int) { m.ApplyCommand(cmd) }) // the last seq again: a duplicate
	ps.put("statemachine.dup_apply_ns", dup, "ns", n)
	return nil
}

// snapshot: fork, serialise and restore the churn workload's 8 MB of state.
func (ps *probeSet) snapshot() error {
	m := statemachine.NewSessioned(statemachine.NewKVMachine())
	for i := 0; i < preloadKeys; i++ {
		m.ApplyCommand(types.Command{Kind: types.CmdApp, Client: "bench-probe", Seq: uint64(i + 1),
			Data: statemachine.EncodePut(fmt.Sprintf("pre/%05d", i), preloadValueFor(0, i))})
	}
	var forks, outNS, inNS []int64
	var bytes int
	for stop := time.Now().Add(ps.per); len(forks) == 0 || time.Now().Before(stop); {
		t := time.Now()
		src := m.ForkSnapshot()
		forks = append(forks, time.Since(t).Nanoseconds())

		t = time.Now()
		chunks := make([][]byte, src.NumChunks())
		bytes = 0
		for i := range chunks {
			chunks[i] = src.Chunk(i)
			bytes += len(chunks[i])
		}
		outNS = append(outNS, time.Since(t).Nanoseconds())

		fresh := statemachine.NewSessioned(statemachine.NewKVMachine())
		t = time.Now()
		for i, c := range chunks {
			if err := fresh.RestoreChunk(i, c); err != nil {
				return err
			}
		}
		if err := fresh.FinishRestore(len(chunks)); err != nil {
			return err
		}
		inNS = append(inNS, time.Since(t).Nanoseconds())
		if kv, ok := fresh.Inner().(*statemachine.KVStore); !ok || kv.Len() != preloadKeys {
			return errors.New("restored machine does not hold the snapshot's keys")
		}
	}
	slices.Sort(forks)
	slices.Sort(outNS)
	slices.Sort(inNS)
	mbPerS := func(ns int64) float64 { return ratio(float64(bytes)/1e6, float64(ns)/1e9) }
	ps.put("statemachine.fork_snapshot_us", us(percentile(forks, 50)), "us", len(forks))
	ps.put("statemachine.snapshot_mb_per_s", mbPerS(percentile(outNS, 50)), "MB/s", len(outNS))
	ps.put("statemachine.restore_mb_per_s", mbPerS(percentile(inNS, 50)), "MB/s", len(inNS))
	return nil
}

// trio is three paxos replicas of one static configuration on the TCP fabric.
type trio struct {
	net    *transport.Network
	reps   []*paxos.Replica
	stores []*storage.WALStore
	tmpDir string
}

func startTrio(durable bool) (*trio, error) {
	t := &trio{net: transport.NewTCPNetwork(transport.Options{})}
	cfg, err := types.NewConfig(1, members)
	if err != nil {
		return nil, err
	}
	if durable {
		if t.tmpDir, err = makeTempDir("probe-paxos"); err != nil {
			t.stop()
			return nil, err
		}
	}
	for _, id := range members {
		var st storage.Store = storage.NewMem()
		if durable {
			w, err := storage.OpenWALStore(filepath.Join(t.tmpDir, string(id)), storage.WALStoreOptions{SyncWrites: true})
			if err != nil {
				t.stop()
				return nil, err
			}
			t.stores = append(t.stores, w)
			st = w
		}
		r, err := paxos.New(cfg, id, t.net.Endpoint(id), st, 1, cluster.FastOptions().Paxos)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.reps = append(t.reps, r)
	}
	for _, r := range t.reps {
		if err := r.Start(); err != nil {
			t.stop()
			return nil, err
		}
	}
	return t, nil
}

func (t *trio) stop() {
	for _, r := range t.reps {
		r.Stop()
	}
	t.net.Close()
	for _, w := range t.stores {
		_ = w.Close() // the directory is removed next
	}
	if t.tmpDir != "" {
		removeTempDir(t.tmpDir)
	}
}

// leader waits until all three replicas name the same leader and that replica
// agrees, and returns it.
func (t *trio) leader() (*paxos.Replica, error) {
	for deadline := time.Now().Add(probeTimeout); time.Now().Before(deadline); time.Sleep(500 * time.Microsecond) {
		var lead *paxos.Replica
		first, _ := t.reps[0].Leader()
		agreed := first != ""
		for _, r := range t.reps {
			hint, isLeader := r.Leader()
			agreed = agreed && hint == first
			if isLeader {
				lead = r
			}
		}
		if agreed && lead != nil {
			return lead, nil
		}
	}
	return nil, errors.New("no leader agreed on")
}

// drain discards a replica's decisions until its channel closes.
func drain(r *paxos.Replica) {
	for range r.Decisions() {
	}
}

// appCommands is the number of client commands a decision carries.
func appCommands(d smr.Decision) int {
	switch d.Cmd.Kind {
	case types.CmdApp:
		return 1
	case types.CmdBatch:
		cmds, err := types.DecodeBatch(d.Cmd.Data)
		if err != nil {
			return 0
		}
		n := 0
		for _, c := range cmds {
			if c.Kind == types.CmdApp {
				n++
			}
		}
		return n
	default:
		return 0
	}
}

// paxos: the static engine alone. Leader Propose to the leader's own
// Decisions, one at a time and 64 outstanding; ReadIndex to its callback.
func (ps *probeSet) paxos(durable bool) error {
	t, err := startTrio(durable)
	if err != nil {
		return err
	}
	defer t.stop()
	lead, err := t.leader()
	if err != nil {
		return err
	}
	for _, r := range t.reps {
		if r != lead {
			go drain(r)
		}
	}
	seq := uint64(0)
	propose := func() error {
		seq++
		return lead.Propose(types.Command{Kind: types.CmdApp, Client: "bench-probe", Seq: seq, Data: putOp(int(seq))})
	}
	// next takes one decision off the leader's stream and returns how many of
	// the probe's commands it carried (a slot batches several under load).
	next := func() (int, error) {
		select {
		case d, ok := <-lead.Decisions():
			if !ok {
				return 0, errors.New("leader stopped")
			}
			return appCommands(d), nil
		case <-time.After(probeTimeout):
			return 0, errProbeTimeout
		}
	}
	one, err := ps.each(func() error {
		if err := propose(); err != nil {
			return err
		}
		for {
			if n, err := next(); n > 0 || err != nil {
				return err
			}
		}
	})
	if err != nil {
		return fmt.Errorf("one slot at a time: %w", err)
	}
	if durable {
		ps.put("paxos.slot_wal_us_p50", us(percentile(one, 50)), "us", len(one))
		return nil
	}
	ps.put("paxos.slot_us_p50", us(percentile(one, 50)), "us", len(one))
	ps.put("paxos.slot_us_p99", us(percentile(one, 99)), "us", len(one))

	const outstanding = 64
	inFlight, decided := 0, 0
	start := time.Now()
	for measuring := true; measuring || inFlight > 0; measuring = measuring && time.Since(start) < ps.per {
		for ; measuring && inFlight < outstanding; inFlight++ {
			if err := propose(); err != nil {
				return err
			}
		}
		n, err := next()
		if err != nil {
			return fmt.Errorf("%d outstanding, %d decided: %w", inFlight, decided, err)
		}
		inFlight -= n
		if measuring {
			decided += n
		}
	}
	ps.put("paxos.slots_per_s", float64(decided)/ps.per.Seconds(), "1/s", decided)

	// The burst above can cost the leader its place (seen once): a read that
	// finds it deposed goes to whoever leads now.
	done := make(chan error, 1)
	reads, err := ps.each(func() error {
		for {
			if err := lead.ReadIndex(func(_ types.Slot, err error) { done <- err }); err != nil {
				return err
			}
			select {
			case err := <-done:
				if !errors.Is(err, smr.ErrNotLeader) {
					return err
				}
				if lead, err = t.leader(); err != nil {
					return err
				}
			case <-time.After(probeTimeout):
				return errProbeTimeout
			}
		}
	})
	if err != nil {
		return fmt.Errorf("ReadIndex: %w", err)
	}
	ps.put("paxos.readindex_us_p50", us(percentile(reads, 50)), "us", len(reads))
	return nil
}

// elect: Start of three fresh replicas to the first leader all agree on.
func (ps *probeSet) elect() error {
	const repeats = 15
	var d []int64
	for i := 0; i < repeats; i++ {
		start := time.Now()
		t, err := startTrio(false)
		if err != nil {
			return err
		}
		_, err = t.leader()
		d = append(d, time.Since(start).Nanoseconds())
		t.stop()
		if err != nil {
			return err
		}
	}
	slices.Sort(d)
	ps.put("paxos.elect_ms_p50", ms(percentile(d, 50)), "ms", len(d))
	return nil
}

// nodeSubmit: Node.Submit in-process on the leader, without client, rpc or
// transport on the way in. With one member it is the no-quorum baseline.
func (ps *probeSet) nodeSubmit(initial []types.NodeID, name string) error {
	sv, _, err := setUp(workloadSpec{Name: "probe", Sessions: 1}, initial, 0, nil)
	if err != nil {
		return err
	}
	defer sv.close()
	var lead *reconfig.Node
	for deadline := time.Now().Add(probeTimeout); lead == nil && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, n := range sv.nodes {
			if n.LeaderHint() == n.Self() {
				lead = n
			}
		}
	}
	if lead == nil {
		return errors.New("no node names itself leader")
	}
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout+ps.per)
	defer cancel()
	seq := uint64(0)
	d, err := ps.each(func() error {
		seq++
		_, err := lead.Submit(ctx, "bench-probe", seq, putOp(int(seq)))
		return err
	})
	if err != nil {
		return err
	}
	ps.put(name, us(percentile(d, 50)), "us", len(d))
	return nil
}

// client: the full path, one session.
func (ps *probeSet) client() error {
	sv, sessions, err := setUp(workloadSpec{Name: "probe", Sessions: 1}, members, 0, nil)
	if err != nil {
		return err
	}
	defer sv.close()
	s := sessions[0]
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout+2*ps.per)
	defer cancel()
	k := 0
	writes, err := ps.each(func() error {
		k = (k + 1) % keysPerSession
		return s.put(ctx, k)
	})
	if err != nil {
		return err
	}
	reads, err := ps.each(func() error {
		k = (k + 1) % keysPerSession
		return s.get(ctx, k)
	})
	if err != nil {
		return err
	}
	if s.wrong > 0 {
		return fmt.Errorf("%d reads returned a value other than the last acknowledged", s.wrong)
	}
	ps.put("client.submit_us_p50", us(percentile(writes, 50)), "us", len(writes))
	ps.put("client.read_us_p50", us(percentile(reads, 50)), "us", len(reads))
	return nil
}
