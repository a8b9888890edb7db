package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/reconfig"
	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// GroupManager hosts N independent RSM groups — one reconfigurable chain
// each — multiplexed over shared per-process infrastructure. Every physical
// process owns exactly one transport endpoint and one physical store; each
// group replica on that process runs over a group view of the endpoint
// (transport.Endpoint.Group) and a prefixed view of the store
// (storage.WithPrefix), so:
//
//   - one TCP connection per process pair carries every group's traffic, and
//     a cross-group burst still coalesces into single socket writes;
//   - every group's records land in the *same* WAL, so the WAL's group
//     commit coalesces fsyncs across groups — more groups means fewer
//     fsyncs per operation, not more;
//   - recovery demultiplexes naturally by key prefix, and one checkpoint
//     compaction covers every group.
//
// Group 0 is reserved: it is the legacy ungrouped runtime (empty key prefix,
// ungrouped wire frames) and is not managed here.
type GroupManager struct {
	cfg Config
	net *transport.Network

	mu      sync.Mutex
	procs   map[types.NodeID]*managedProc
	groups  map[types.GroupID]*groupRun
	backing Stores // opens each process's shared store and owns its files
	closed  bool
}

// managedProc is one physical process: an endpoint plus one shared store.
type managedProc struct {
	id      types.NodeID
	store   storage.Store
	crashed bool
}

// groupRun is one group's set of replicas, keyed by hosting process.
type groupRun struct {
	id      types.GroupID
	factory statemachine.Factory
	nodes   map[types.NodeID]*reconfig.Node
	rot     Rotation     // whom a submit goes to when no leader is cached
	leader  types.NodeID // cached leader hint for submit routing
}

// GroupStats sums one group's replica counters: whether the group did any
// work, and whether any replica saw an invariant break.
type GroupStats struct {
	Group               types.GroupID
	Applied             int64
	InvariantViolations int64
}

// NewGroupManager creates an empty manager (no processes, no groups).
func NewGroupManager(cfg Config) *GroupManager {
	if cfg.Factory == nil {
		cfg.Factory = statemachine.NewKVMachine
	}
	newNet := transport.NewNetwork
	if cfg.TCP {
		newNet = transport.NewTCPNetwork
	}
	return &GroupManager{
		cfg:     cfg,
		net:     newNet(cfg.Transport),
		procs:   make(map[types.NodeID]*managedProc),
		groups:  make(map[types.GroupID]*groupRun),
		backing: cfg.stores(),
	}
}

// Network exposes the shared transport for fault injection and accounting.
func (m *GroupManager) Network() *transport.Network { return m.net }

// AddProcess registers a physical process: its endpoint and shared store are
// created eagerly so every group replica later placed here multiplexes over
// them. Idempotent for an already-registered process.
func (m *GroupManager) AddProcess(id types.NodeID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return reconfig.ErrStopped
	}
	if _, ok := m.procs[id]; ok {
		return nil
	}
	st, err := m.backing.Open(id)
	if err != nil {
		return err
	}
	m.net.Endpoint(id)
	m.procs[id] = &managedProc{id: id, store: st}
	return nil
}

// newReplicaLocked builds one group replica on one process: a reconfig.Node
// over the process endpoint's group view and the shared store's group prefix.
func (m *GroupManager) newReplicaLocked(g *groupRun, proc *managedProc) (*reconfig.Node, error) {
	n, err := reconfig.NewNode(reconfig.NodeConfig{
		Self:     proc.id,
		Endpoint: m.net.Endpoint(proc.id).Group(uint64(g.id)),
		Store:    storage.WithPrefix(proc.store, storage.GroupPrefix(uint64(g.id))),
		Factory:  g.factory,
		Opts:     m.cfg.Node,
	})
	if err != nil {
		return nil, err
	}
	g.nodes[proc.id] = n
	return n, nil
}

// CreateGroup bootstraps and starts group gid with the given initial members
// (processes are auto-registered). factory nil uses the manager default.
func (m *GroupManager) CreateGroup(gid types.GroupID, members []types.NodeID, factory statemachine.Factory) error {
	if gid == 0 {
		return fmt.Errorf("cluster: group 0 is the reserved ungrouped runtime")
	}
	cfg, err := types.NewConfig(1, members)
	if err != nil {
		return err
	}
	for _, id := range cfg.Members {
		if err := m.AddProcess(id); err != nil {
			return err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return reconfig.ErrStopped
	}
	if _, ok := m.groups[gid]; ok {
		return fmt.Errorf("cluster: group %d already exists", gid)
	}
	if factory == nil {
		factory = m.cfg.Factory
	}
	g := &groupRun{
		id:      gid,
		factory: factory,
		nodes:   make(map[types.NodeID]*reconfig.Node),
		rot:     Rotation{Order: cfg.Members},
	}
	for _, id := range cfg.Members {
		n, err := m.newReplicaLocked(g, m.procs[id])
		if err != nil {
			return err
		}
		if err := n.Bootstrap(cfg); err != nil {
			return err
		}
		if err := n.Start(); err != nil {
			return err
		}
	}
	m.groups[gid] = g
	return nil
}

// AddGroupReplica starts an idle (spare) replica of group gid on the given
// process; it serves once a reconfiguration makes it a member.
func (m *GroupManager) AddGroupReplica(gid types.GroupID, proc types.NodeID) (*reconfig.Node, error) {
	if err := m.AddProcess(proc); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, reconfig.ErrStopped
	}
	g, ok := m.groups[gid]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown group %d", gid)
	}
	if n, ok := g.nodes[proc]; ok {
		return n, nil
	}
	n, err := m.newReplicaLocked(g, m.procs[proc])
	if err != nil {
		return nil, err
	}
	if err := n.Start(); err != nil {
		delete(g.nodes, proc)
		return nil, err
	}
	return n, nil
}

// StopGroup stops every replica of gid and drops its endpoint views. The
// group's records stay in the shared stores; re-creating the same gid over
// the same directories would recover them.
func (m *GroupManager) StopGroup(gid types.GroupID) {
	m.mu.Lock()
	g := m.groups[gid]
	delete(m.groups, gid)
	var nodes []*reconfig.Node
	if g != nil {
		for _, n := range g.nodes {
			nodes = append(nodes, n)
		}
	}
	procs := make([]types.NodeID, 0, len(m.procs))
	for id := range m.procs {
		procs = append(procs, id)
	}
	m.mu.Unlock()
	for _, n := range nodes {
		n.Stop()
	}
	for _, id := range procs {
		m.net.Endpoint(id).DropGroup(uint64(gid))
	}
}

// Groups returns the live group IDs, ascending.
func (m *GroupManager) Groups() []types.GroupID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]types.GroupID, 0, len(m.groups))
	for gid := range m.groups {
		out = append(out, gid)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Processes returns the registered process IDs, sorted.
func (m *GroupManager) Processes() []types.NodeID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]types.NodeID, 0, len(m.procs))
	for id := range m.procs {
		out = append(out, id)
	}
	return types.SortNodeIDs(out)
}

// Node returns group gid's replica on the given process (nil if none).
func (m *GroupManager) Node(gid types.GroupID, proc types.NodeID) *reconfig.Node {
	m.mu.Lock()
	defer m.mu.Unlock()
	if g, ok := m.groups[gid]; ok {
		return g.nodes[proc]
	}
	return nil
}

// GroupMembers returns the newest configuration's member set known for gid.
func (m *GroupManager) GroupMembers(gid types.GroupID) []types.NodeID {
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.groups[gid]
	if g == nil {
		return nil
	}
	g.rot.Refresh(g.nodes)
	return types.CloneNodeIDs(g.rot.Order)
}

// errNoReplica reports a group with no replica to hand a command to right
// now: none serving, none speculatively accepting.
var errNoReplica = errors.New("cluster: no serving replica for group")

// pick returns the replica of g to hand a command to, preferring the cached
// leader so commands do not pay an extra forwarding hop; on any miss it falls
// back to the rotation, which may return a replica that only accepts (see
// Rotation.Pick).
func (m *GroupManager) pick(g *groupRun) *reconfig.Node {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := g.nodes[g.leader]; n != nil && n.Serving() && n.LeaderHint() == g.leader {
		return n
	}
	g.leader = ""
	// Prefer the replica that believes it leads.
	for _, id := range g.rot.Order {
		if n := g.nodes[id]; n != nil && n.Serving() && n.LeaderHint() == id {
			g.leader = id
			return n
		}
	}
	return g.rot.Pick(g.nodes)
}

// refreshOrder re-learns g's member set from its replicas' newest config.
func (m *GroupManager) refreshOrder(g *groupRun) {
	m.mu.Lock()
	defer m.mu.Unlock()
	g.rot.Refresh(g.nodes)
}

// waitServing returns a serving replica of g, waiting for one until ctx ends.
func (m *GroupManager) waitServing(ctx context.Context, g *groupRun) (*reconfig.Node, error) {
	for {
		if n := m.pick(g); n != nil && n.Serving() {
			return n, nil
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("%w %d: %w", errNoReplica, g.id, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Submit executes one command on group gid via an in-process submit on a
// serving replica, the same measurement path the single-group harness uses.
func (m *GroupManager) Submit(ctx context.Context, gid types.GroupID, client types.NodeID, seq uint64, op []byte) ([]byte, error) {
	m.mu.Lock()
	g := m.groups[gid]
	m.mu.Unlock()
	if g == nil {
		return nil, fmt.Errorf("cluster: unknown group %d", gid)
	}
	n := m.pick(g)
	if n == nil {
		return nil, fmt.Errorf("%w %d", errNoReplica, gid)
	}
	reply, err := n.Submit(ctx, client, seq, op)
	if err != nil {
		m.mu.Lock()
		g.leader = ""
		m.mu.Unlock()
		if errors.Is(err, reconfig.ErrNotServing) {
			m.refreshOrder(g)
		}
	}
	return reply, err
}

// ReconfigureGroup moves group gid to the given member set. Target processes
// that do not yet host a replica get an idle one first (state arrives via
// chunked snapshot transfer), which is exactly how a shard migrates: the
// keyspace owned by the group follows its replicas to the new nodes.
func (m *GroupManager) ReconfigureGroup(ctx context.Context, gid types.GroupID, members []types.NodeID) (types.Config, error) {
	for _, id := range members {
		if _, err := m.AddGroupReplica(gid, id); err != nil {
			return types.Config{}, err
		}
	}
	m.mu.Lock()
	g := m.groups[gid]
	m.mu.Unlock()
	if g == nil {
		return types.Config{}, fmt.Errorf("cluster: unknown group %d", gid)
	}
	for {
		// Only a serving replica can propose the change; right after an
		// earlier move there may be none until the first joiner installs.
		n, err := m.waitServing(ctx, g)
		if err != nil {
			return types.Config{}, err
		}
		cfg, err := n.Reconfigure(ctx, members)
		if err == nil || errors.Is(err, reconfig.ErrConflict) {
			m.refreshOrder(g)
			return cfg, err
		}
		if errors.Is(err, reconfig.ErrNotServing) {
			m.refreshOrder(g)
			continue
		}
		return types.Config{}, err
	}
}

// WaitGroupServing blocks until some replica of gid serves its current
// configuration.
func (m *GroupManager) WaitGroupServing(ctx context.Context, gid types.GroupID) error {
	m.mu.Lock()
	g := m.groups[gid]
	m.mu.Unlock()
	if g == nil {
		return fmt.Errorf("cluster: unknown group %d", gid)
	}
	_, err := m.waitServing(ctx, g)
	return err
}

// CrashProcess kills a physical process: every group replica it hosts stops
// and its endpoint drops inbound traffic. The shared store survives.
func (m *GroupManager) CrashProcess(id types.NodeID) {
	m.mu.Lock()
	p := m.procs[id]
	var nodes []*reconfig.Node
	for _, g := range m.groups {
		if n, ok := g.nodes[id]; ok {
			nodes = append(nodes, n)
			delete(g.nodes, id)
		}
		if g.leader == id {
			g.leader = ""
		}
	}
	if p != nil {
		p.crashed = true
	}
	m.mu.Unlock()
	if p == nil {
		return
	}
	m.net.Endpoint(id).Pause()
	for _, n := range nodes {
		n.Stop()
	}
}

// RestartProcess reboots a crashed process over its surviving shared store,
// recreating a replica for every group whose records the store holds (the
// group prefix is the recovery demultiplexer: any group with a bootstrap or
// chain record under its prefix gets its replica back).
func (m *GroupManager) RestartProcess(id types.NodeID) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return reconfig.ErrStopped
	}
	p := m.procs[id]
	if p == nil {
		m.mu.Unlock()
		return fmt.Errorf("cluster: process %s was never registered", id)
	}
	p.crashed = false
	type pendingBoot struct {
		g *groupRun
		n *reconfig.Node
	}
	var boots []pendingBoot
	var err error
	for _, g := range m.groups {
		if _, ok := g.nodes[id]; ok {
			continue
		}
		var n *reconfig.Node
		n, err = m.newReplicaLocked(g, p)
		if err != nil {
			break
		}
		boots = append(boots, pendingBoot{g: g, n: n})
	}
	m.mu.Unlock()
	if err != nil {
		return err
	}
	m.net.Endpoint(id).Resume()
	for _, b := range boots {
		if startErr := b.n.Start(); startErr != nil {
			m.mu.Lock()
			delete(b.g.nodes, id)
			m.mu.Unlock()
			return startErr
		}
	}
	return nil
}

// GroupStats aggregates the replica counters for one group.
func (m *GroupManager) GroupStats(gid types.GroupID) GroupStats {
	m.mu.Lock()
	g := m.groups[gid]
	var nodes []*reconfig.Node
	if g != nil {
		for _, n := range g.nodes {
			nodes = append(nodes, n)
		}
	}
	m.mu.Unlock()
	out := GroupStats{Group: gid}
	for _, n := range nodes {
		st := n.Stats()
		out.Applied += st.Applied
		out.InvariantViolations += st.InvariantViolations
	}
	return out
}

// PerGroupStats returns every live group's aggregated stats, ordered by ID.
func (m *GroupManager) PerGroupStats() []GroupStats {
	out := make([]GroupStats, 0)
	for _, gid := range m.Groups() {
		out = append(out, m.GroupStats(gid))
	}
	return out
}

// TotalViolations sums invariant violations over every group replica.
func (m *GroupManager) TotalViolations() int64 {
	var total int64
	for _, gs := range m.PerGroupStats() {
		total += gs.InvariantViolations
	}
	return total
}

// Close stops every replica, the network, and the shared stores.
func (m *GroupManager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	var nodes []*reconfig.Node
	for _, g := range m.groups {
		for _, n := range g.nodes {
			nodes = append(nodes, n)
		}
	}
	m.mu.Unlock()
	for _, n := range nodes {
		n.Stop()
	}
	m.net.Close()
	m.backing.Close() // closed is set: nothing opens a store any more
}
