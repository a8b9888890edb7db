// Package harness runs the simulated-fabric experiments of DESIGN.md §4
// (cmd/rsmbench is their front-end): it deploys each of the three systems
// (the paper's composed reconfigurable SMR, the stop-the-world baseline, and
// the in-band α-window baseline) behind one uniform interface, on in-memory
// stores, drives client load, injects reconfigurations and failures, and
// reports tables.
//
// The disruption experiments use in-process submits on the serving nodes so
// the three systems are charged identically (no client RPC plane in the
// way); the megaload ones go through the real client library.
package harness

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/baseline/inband"
	"repro/internal/baseline/stw"
	"repro/internal/cluster"
	"repro/internal/reconfig"
	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// SystemKind names one of the three systems under test.
type SystemKind uint8

const (
	// Composed is the paper's contribution: chained static engines.
	Composed SystemKind = 1
	// StopTheWorld is the halt-copy-reboot baseline.
	StopTheWorld SystemKind = 2
	// Inband is the α-window single-log baseline.
	Inband SystemKind = 3
)

// String implements fmt.Stringer.
func (k SystemKind) String() string {
	switch k {
	case Composed:
		return "composed"
	case StopTheWorld:
		return "stop-the-world"
	case Inband:
		return "inband"
	default:
		return fmt.Sprintf("system(%d)", uint8(k))
	}
}

// Deployment is the uniform handle the experiments drive.
type Deployment interface {
	// Submit executes one command for the given client session, retrying
	// internally only across node choice (not across time): a transient
	// outage surfaces as an error so the caller's retry loop observes it.
	Submit(ctx context.Context, clientID types.NodeID, seq uint64, op []byte) ([]byte, error)
	// Reconfigure moves the service to the given member set.
	Reconfigure(ctx context.Context, members []types.NodeID) error
	// Members returns the current configuration's member set.
	Members() []types.NodeID
	// Violations returns the total invariant violations observed.
	Violations() int64
	// Close tears the deployment down.
	Close()
}

// Tuning holds what every deployment in an experiment shares. Node is the
// composed system's options, set by the experiments directly
// (t.Node.Paxos.BatchSize, t.Node.SpeculativeStart, ...); the two baselines
// read their engine timing and retry interval from it too.
type Tuning struct {
	Net  transport.Options
	Node reconfig.Options
}

// DefaultTuning is the experiment-wide preset: ~200µs one-way links with
// 100µs jitter and cluster.FastOptions' node timing (1ms consensus ticks).
func DefaultTuning() Tuning {
	return Tuning{
		Net: transport.Options{
			BaseLatency: 200 * time.Microsecond,
			Jitter:      100 * time.Microsecond,
			Seed:        1,
		},
		Node: cluster.FastOptions(),
	}
}

// NewDeployment builds a deployment of the given kind with `initial` as
// configuration 1 and `spares` started but idle.
func NewDeployment(kind SystemKind, tuning Tuning, factory statemachine.Factory, initial, spares []types.NodeID) (Deployment, error) {
	switch kind {
	case Composed:
		return newComposed(tuning, factory, initial, spares)
	case StopTheWorld:
		return newSTW(tuning, factory, initial, spares)
	case Inband:
		return newInband(tuning, factory, initial, spares)
	default:
		return nil, fmt.Errorf("harness: unknown system %d", kind)
	}
}

// --- composed -----------------------------------------------------------------

// composedDep is the composed system as a Deployment: the default group of
// one cluster.Cluster, which the experiments also reach into for faults
// (Network, Crash/Restart) and per-node reads (Node).
type composedDep struct{ *cluster.Cluster }

func newComposed(t Tuning, factory statemachine.Factory, initial, spares []types.NodeID) (*composedDep, error) {
	d := &composedDep{cluster.New(cluster.Config{Transport: t.Net, Node: t.Node})}
	err := d.CreateGroup(0, initial, factory)
	for _, id := range spares {
		if err == nil {
			_, err = d.AddReplica(0, id)
		}
	}
	if err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

func (d *composedDep) Submit(ctx context.Context, clientID types.NodeID, seq uint64, op []byte) ([]byte, error) {
	return d.Cluster.Submit(ctx, 0, clientID, seq, op)
}

func (d *composedDep) Reconfigure(ctx context.Context, members []types.NodeID) error {
	_, err := d.Cluster.Reconfigure(ctx, 0, members)
	return err
}

func (d *composedDep) Members() []types.NodeID { return d.Cluster.Members(0) }

func (d *composedDep) Violations() int64 { return d.TotalViolations() }

// nodeStats returns the counters of every running node.
func (d *composedDep) nodeStats() []reconfig.NodeStats {
	var out []reconfig.NodeStats
	for _, id := range d.Processes() {
		if n := d.Node(0, id); n != nil {
			out = append(out, n.Stats())
		}
	}
	return out
}

// ReadStats sums the read-path and inbox-drop counters over all nodes.
func (d *composedDep) ReadStats() (fast, fallback, fenced, dropped int64) {
	for _, st := range d.nodeStats() {
		fast += st.FastReads
		fallback += st.ReadFallbacks
		fenced += st.ReadFenced
		dropped += st.DroppedInbound
	}
	return fast, fallback, fenced, dropped
}

// TransferStats aggregates the state-transfer counters over a deployment:
// how many chunks moved, how many failed CRC, and the worst time any node
// held its mutex capturing state at a wedge.
type TransferStats struct {
	SnapshotsFetched int64
	ChunksFetched    int64
	ChunksServed     int64
	ChunkCRCRejected int64
	MaxWedgeCapture  time.Duration // max over nodes of the last wedge's capture
	SpecDecides      int64         // decisions learned before the deciding node's snapshot installed
	SpecParked       int64         // decisions parked in apply queues at the moment of install
	NodeResubmits    int64         // server-side pending-command re-proposals
}

// TransferStats sums the chunked-transfer counters over all nodes.
func (d *composedDep) TransferStats() TransferStats {
	var out TransferStats
	for _, st := range d.nodeStats() {
		out.SnapshotsFetched += st.SnapshotsFetched
		out.ChunksFetched += st.ChunksFetched
		out.ChunksServed += st.ChunksServed
		out.ChunkCRCRejected += st.ChunkCRCRejected
		if d := time.Duration(st.WedgeCaptureNS); d > out.MaxWedgeCapture {
			out.MaxWedgeCapture = d
		}
		out.SpecDecides += st.SpeculativeDecides
		out.SpecParked += st.SpeculativeParked
		out.NodeResubmits += st.Resubmits
	}
	return out
}

// FirstDecideIn returns the earliest moment any of the given nodes learned a
// decided slot of configuration id — the joiners' time-to-first-decide
// numerator for the R2 shootout. ok is false when none has decided yet.
func (d *composedDep) FirstDecideIn(members []types.NodeID, id types.ConfigID) (time.Time, bool) {
	var best time.Time
	found := false
	for _, m := range members {
		n := d.Node(0, m)
		if n == nil {
			continue
		}
		if t, ok := n.FirstDecide(id); ok && (!found || t.Before(best)) {
			best, found = t, true
		}
	}
	return best, found
}

// --- stop-the-world --------------------------------------------------------------

type stwDep struct {
	net  *transport.Network
	svcs map[types.NodeID]*stw.Service
	mu   sync.Mutex
	cur  types.Config
	rr   int
}

func newSTW(t Tuning, factory statemachine.Factory, initial, spares []types.NodeID) (*stwDep, error) {
	d := &stwDep{
		net:  transport.NewNetwork(t.Net),
		svcs: make(map[types.NodeID]*stw.Service),
	}
	cfg, err := types.NewConfig(1, initial)
	if err != nil {
		return nil, err
	}
	d.cur = cfg
	for _, id := range append(append([]types.NodeID{}, initial...), spares...) {
		svc, err := stw.NewService(stw.Config{
			Self:          id,
			Endpoint:      d.net.Endpoint(id),
			Store:         storage.NewMem(),
			Factory:       factory,
			Paxos:         t.Node.Paxos,
			RetryInterval: t.Node.RetryInterval,
		})
		if err != nil {
			d.Close()
			return nil, err
		}
		d.svcs[id] = svc
	}
	for _, id := range initial {
		if err := d.svcs[id].BootInitial(cfg); err != nil {
			d.Close()
			return nil, err
		}
	}
	return d, nil
}

func (d *stwDep) pick() *stw.Service {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := 0; i < d.cur.N(); i++ {
		d.rr++
		svc := d.svcs[d.cur.Members[d.rr%d.cur.N()]]
		if svc != nil && !svc.Halted() {
			return svc
		}
	}
	return nil
}

func (d *stwDep) Submit(ctx context.Context, clientID types.NodeID, seq uint64, op []byte) ([]byte, error) {
	svc := d.pick()
	if svc == nil {
		return nil, cluster.ErrNoReplica
	}
	return svc.Submit(ctx, clientID, seq, op)
}

func (d *stwDep) Reconfigure(_ context.Context, members []types.NodeID) error {
	d.mu.Lock()
	old := d.cur
	next, err := types.NewConfig(old.ID+1, members)
	if err != nil {
		d.mu.Unlock()
		return err
	}
	d.mu.Unlock()

	if _, err := stw.Reconfigure(d.svcs, old, next, uint64(next.ID)); err != nil {
		return err
	}
	d.mu.Lock()
	d.cur = next
	d.mu.Unlock()
	return nil
}

func (d *stwDep) Members() []types.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return types.CloneNodeIDs(d.cur.Members)
}

func (d *stwDep) Violations() int64 { return 0 }

func (d *stwDep) Close() {
	for _, svc := range d.svcs {
		svc.Stop()
	}
	d.net.Close()
}

// --- inband -------------------------------------------------------------------------

type inbandDep struct {
	net  *transport.Network
	svcs map[types.NodeID]*inband.Service
	mu   sync.Mutex
	cur  []types.NodeID
	rr   int
}

// inbandAlpha is the in-band baseline's pipeline window: how many slots past
// the last executed one it may order before the next must execute.
const inbandAlpha = 4

func newInband(t Tuning, factory statemachine.Factory, initial, spares []types.NodeID) (*inbandDep, error) {
	d := &inbandDep{
		net:  transport.NewNetwork(t.Net),
		svcs: make(map[types.NodeID]*inband.Service),
		cur:  types.CloneNodeIDs(initial),
	}
	cfg, err := types.NewConfig(1, initial)
	if err != nil {
		return nil, err
	}
	for _, id := range append(append([]types.NodeID{}, initial...), spares...) {
		svc, err := inband.NewService(inband.ServiceConfig{
			Self:     id,
			Endpoint: d.net.Endpoint(id),
			Store:    storage.NewMem(),
			Factory:  factory,
			Initial:  cfg,
			Opts: inband.Options{
				Alpha:                inbandAlpha,
				TickInterval:         t.Node.Paxos.TickInterval,
				HeartbeatEveryTicks:  t.Node.Paxos.HeartbeatEveryTicks,
				ElectionTimeoutTicks: t.Node.Paxos.ElectionTimeoutTicks,
				ElectionJitterTicks:  t.Node.Paxos.ElectionJitterTicks,
			},
			RetryInterval: t.Node.RetryInterval,
		})
		if err != nil {
			d.Close()
			return nil, err
		}
		d.svcs[id] = svc
	}
	return d, nil
}

func (d *inbandDep) pick() *inband.Service {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.cur) == 0 {
		return nil
	}
	d.rr++
	return d.svcs[d.cur[d.rr%len(d.cur)]]
}

func (d *inbandDep) Submit(ctx context.Context, clientID types.NodeID, seq uint64, op []byte) ([]byte, error) {
	svc := d.pick()
	if svc == nil {
		return nil, cluster.ErrNoReplica
	}
	return svc.Submit(ctx, clientID, seq, op)
}

func (d *inbandDep) Reconfigure(ctx context.Context, members []types.NodeID) error {
	svc := d.pick()
	if svc == nil {
		return fmt.Errorf("harness: no inband member to reconfigure through")
	}
	if _, err := svc.Reconfigure(ctx, members); err != nil {
		return err
	}
	d.mu.Lock()
	d.cur = types.SortNodeIDs(types.CloneNodeIDs(members))
	d.mu.Unlock()
	return nil
}

func (d *inbandDep) Members() []types.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return types.CloneNodeIDs(d.cur)
}

func (d *inbandDep) Violations() int64 {
	var v int64
	for _, svc := range d.svcs {
		v += svc.Engine().Stats().InvariantViolations
	}
	return v
}

func (d *inbandDep) Close() {
	for _, svc := range d.svcs {
		svc.Stop()
	}
	d.net.Close()
}
