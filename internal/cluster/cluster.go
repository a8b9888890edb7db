// Package cluster is the one runtime of a composed deployment, in one OS
// process: a Cluster owns processes (one transport endpoint and one store
// each) and groups (one reconfigurable chain each, a replica per hosting
// process). Every group replica on a process runs over a group view of the
// process endpoint (transport.Endpoint.Group) and a prefixed view of the
// process store (storage.WithPrefix), so:
//
//   - one TCP connection per process pair carries every group's traffic, and
//     a cross-group burst still coalesces into single socket writes;
//   - every group's records land in the same WAL, so the WAL's group commit
//     coalesces fsyncs across groups — more groups means fewer fsyncs per
//     operation, not more;
//   - recovery demultiplexes by key prefix, and one checkpoint compaction
//     covers every group.
//
// A single-group service is the N = 1 case: group 0 is the default group —
// the root endpoint view and the empty key prefix — and the one NewClient
// sessions talk to. Tests, examples, rsmd and the benchmark all build on it.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/paxos"
	"repro/internal/reconfig"
	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// Config assembles a cluster.
type Config struct {
	// Transport configures the simulated network.
	Transport transport.Options
	// TCP routes all traffic over real loopback sockets instead of the
	// in-memory scheduler (latency options are then ignored).
	TCP bool
	// Node configures every group replica.
	Node reconfig.Options
	// Factory builds a replica's state machine for groups created without
	// their own; nil means statemachine.NewKVMachine.
	Factory statemachine.Factory
	// Storage selects each process's backend: StorageMem (default) or
	// StorageWAL.
	Storage string
	// StorageDir roots the on-disk backends, one subdirectory per process.
	// Empty means a fresh OS temp directory removed on Close.
	StorageDir string
	// SyncWrites makes on-disk backends fsync before acknowledging writes.
	SyncWrites bool
}

// FastOptions returns node timing suitable for tests and local experiments:
// 1ms consensus ticks (the node's retry, linger and fetch timings are
// constants).
func FastOptions() reconfig.Options {
	return reconfig.Options{
		Paxos: paxos.Options{
			TickInterval: time.Millisecond,
		},
	}
}

// Cluster is a running deployment. A process is crashed exactly while its
// endpoint is paused, and a crashed process hosts no replica.
type Cluster struct {
	cfg Config
	net *transport.Network

	mu         sync.Mutex
	procs      map[types.NodeID]storage.Store // each process's one store
	groups     map[types.GroupID]*group
	backing    Stores // opens the stores above and owns their files
	clients    []*client.Client
	nextClient int
	closed     bool
}

// group is one group's running replicas, keyed by hosting process.
type group struct {
	factory statemachine.Factory
	nodes   map[types.NodeID]*reconfig.Node
	rot     Rotation // whom a submit goes to
}

// GroupStats sums one group's replica counters: whether the group did any
// work, and whether any replica saw an invariant break.
type GroupStats struct {
	Group               types.GroupID
	Applied             int64
	InvariantViolations int64
}

// ErrNoReplica reports a group with no replica to hand a command to right
// now — none serving, none speculatively accepting — so the command reached
// no node and certainly did not execute.
var ErrNoReplica = errors.New("cluster: no replica to submit to")

// New creates an empty cluster (no processes, no groups).
func New(cfg Config) *Cluster {
	if cfg.Factory == nil {
		cfg.Factory = statemachine.NewKVMachine
	}
	newNet := transport.NewNetwork
	if cfg.TCP {
		newNet = transport.NewTCPNetwork
	}
	return &Cluster{
		cfg:     cfg,
		net:     newNet(cfg.Transport),
		procs:   make(map[types.NodeID]storage.Store),
		groups:  make(map[types.GroupID]*group),
		backing: Stores{Backend: cfg.Storage, Dir: cfg.StorageDir, SyncWrites: cfg.SyncWrites},
	}
}

// Close stops every replica and client, the network, and the stores.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	var nodes []*reconfig.Node
	for _, g := range c.groups {
		for _, n := range g.nodes {
			nodes = append(nodes, n)
		}
	}
	clients := c.clients
	c.mu.Unlock()
	for _, cl := range clients {
		cl.Close()
	}
	for _, n := range nodes {
		n.Stop()
	}
	c.net.Close()
	c.backing.Close() // closed is set: nothing opens a store any more
}

// Network exposes the shared transport for fault injection and accounting.
func (c *Cluster) Network() *transport.Network { return c.net }

// groupLocked returns group gid. Caller holds mu.
func (c *Cluster) groupLocked(gid types.GroupID) (*group, error) {
	if c.closed {
		return nil, reconfig.ErrStopped
	}
	g := c.groups[gid]
	if g == nil {
		return nil, fmt.Errorf("cluster: unknown group %d", gid)
	}
	return g, nil
}

// startLocked starts g's replica on proc — a reconfig.Node over the process
// endpoint's group view and the process store's group prefix, the store
// opened on the process's first use — bootstrapping it first when boot names
// the group's initial configuration. The replica enters g.nodes only once it
// runs. Caller holds mu.
func (c *Cluster) startLocked(gid types.GroupID, g *group, proc types.NodeID, boot *types.Config) (*reconfig.Node, error) {
	st, ok := c.procs[proc]
	if !ok {
		var err error
		if st, err = c.backing.Open(proc); err != nil {
			return nil, err
		}
		c.procs[proc] = st
	}
	n, err := reconfig.NewNode(reconfig.NodeConfig{
		Self:     proc,
		Endpoint: c.net.Endpoint(proc).Group(uint64(gid)),
		Store:    storage.WithPrefix(st, storage.GroupPrefix(uint64(gid))),
		Factory:  g.factory,
		Opts:     c.cfg.Node,
	})
	if err != nil {
		return nil, err
	}
	if boot != nil {
		err = n.Bootstrap(*boot)
	}
	if err == nil {
		err = n.Start()
	}
	if err != nil {
		n.Stop()
		return nil, fmt.Errorf("cluster: group %d on %s: %w", gid, proc, err)
	}
	g.nodes[proc] = n
	return n, nil
}

// stopOnLocked stops every replica process proc hosts. Caller holds mu.
func (c *Cluster) stopOnLocked(proc types.NodeID) {
	for _, g := range c.groups {
		if n := g.nodes[proc]; n != nil {
			delete(g.nodes, proc)
			n.Stop()
		}
	}
}

// notCrashed refuses a new replica on a crashed process: Restart starts it.
func (c *Cluster) notCrashed(proc types.NodeID) error {
	if c.net.Endpoint(proc).Paused() {
		return fmt.Errorf("cluster: process %s is crashed", proc)
	}
	return nil
}

// CreateGroup bootstraps and starts group gid with the given initial members
// (a process comes into being with its first replica). factory nil uses the
// cluster default. On an error nothing of the group is left running.
func (c *Cluster) CreateGroup(gid types.GroupID, members []types.NodeID, factory statemachine.Factory) error {
	cfg, err := types.NewConfig(1, members)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return reconfig.ErrStopped
	}
	if _, ok := c.groups[gid]; ok {
		return fmt.Errorf("cluster: group %d already exists", gid)
	}
	if factory == nil {
		factory = c.cfg.Factory
	}
	g := &group{
		factory: factory,
		nodes:   make(map[types.NodeID]*reconfig.Node),
		rot:     Rotation{Order: cfg.Members},
	}
	for _, id := range cfg.Members {
		if err = c.notCrashed(id); err == nil {
			_, err = c.startLocked(gid, g, id, &cfg)
		}
		if err != nil {
			for _, n := range g.nodes {
				n.Stop()
			}
			return err
		}
	}
	c.groups[gid] = g
	return nil
}

// AddReplica starts an idle (spare) replica of group gid on the given
// process, or returns the one already there; it serves once a
// reconfiguration makes it a member.
func (c *Cluster) AddReplica(gid types.GroupID, proc types.NodeID) (*reconfig.Node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g, err := c.groupLocked(gid)
	if err != nil {
		return nil, err
	}
	if n := g.nodes[proc]; n != nil {
		return n, nil
	}
	if err := c.notCrashed(proc); err != nil {
		return nil, err
	}
	return c.startLocked(gid, g, proc, nil)
}

// StopGroup stops every replica of gid and drops its endpoint views. The
// group's records stay in the process stores; re-creating the same gid over
// the same directories would recover them.
func (c *Cluster) StopGroup(gid types.GroupID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.groups[gid]
	if g == nil {
		return
	}
	delete(c.groups, gid)
	for _, n := range g.nodes {
		n.Stop()
	}
	for id := range c.procs {
		c.net.Endpoint(id).DropGroup(uint64(gid))
	}
}

// Crash kills a process: its endpoint drops inbound traffic and every
// replica it hosts stops. The store survives for Restart.
func (c *Cluster) Crash(proc types.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.procs[proc]; !ok {
		return
	}
	c.net.Endpoint(proc).Pause()
	c.stopOnLocked(proc)
}

// Restart reboots a crashed process over its surviving store: a replica of
// every group recovers from the group's prefix (of a group that never ran
// here, an idle spare), then the endpoint hears again. On an error the
// process stays crashed, with nothing running, and Restart can be tried again.
func (c *Cluster) Restart(proc types.NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return reconfig.ErrStopped
	}
	if _, ok := c.procs[proc]; !ok {
		return fmt.Errorf("cluster: process %s has no store to restart from", proc)
	}
	ep := c.net.Endpoint(proc)
	if !ep.Paused() {
		return fmt.Errorf("cluster: process %s is not crashed", proc)
	}
	for gid, g := range c.groups {
		if _, err := c.startLocked(gid, g, proc, nil); err != nil {
			c.stopOnLocked(proc)
			return err
		}
	}
	ep.Resume()
	return nil
}

// Groups returns the live group IDs, ascending.
func (c *Cluster) Groups() []types.GroupID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]types.GroupID, 0, len(c.groups))
	for gid := range c.groups {
		out = append(out, gid)
	}
	slices.Sort(out)
	return out
}

// Processes returns the IDs of all processes, crashed ones included, sorted.
func (c *Cluster) Processes() []types.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]types.NodeID, 0, len(c.procs))
	for id := range c.procs {
		out = append(out, id)
	}
	return types.SortNodeIDs(out)
}

// Node returns group gid's running replica on the given process (nil if
// none).
func (c *Cluster) Node(gid types.GroupID, proc types.NodeID) *reconfig.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g := c.groups[gid]; g != nil {
		return g.nodes[proc]
	}
	return nil
}

// nodes returns group gid's running replicas.
func (c *Cluster) nodes(gid types.GroupID) []*reconfig.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*reconfig.Node
	if g := c.groups[gid]; g != nil {
		for _, n := range g.nodes {
			out = append(out, n)
		}
	}
	return out
}

// Members returns the newest configuration's member set known for gid.
func (c *Cluster) Members(gid types.GroupID) []types.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.groups[gid]
	if g == nil {
		return nil
	}
	g.rot.Refresh(g.nodes)
	return types.CloneNodeIDs(g.rot.Order)
}

// Leader reports the leader hint of a serving replica of gid ("" if none).
func (c *Cluster) Leader(gid types.GroupID) types.NodeID {
	for _, n := range c.nodes(gid) {
		if n.Serving() {
			if lead := n.LeaderHint(); lead != "" {
				return lead
			}
		}
	}
	return ""
}

// pick returns the replica of gid the rotation hands the next command to
// (see Rotation.Pick), ErrNoReplica when there is none.
func (c *Cluster) pick(gid types.GroupID) (*reconfig.Node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g, err := c.groupLocked(gid)
	if err != nil {
		return nil, err
	}
	if n := g.rot.Pick(g.nodes); n != nil {
		return n, nil
	}
	return nil, fmt.Errorf("%w: group %d", ErrNoReplica, gid)
}

// refresh re-learns gid's member set from its replicas' newest config.
func (c *Cluster) refresh(gid types.GroupID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g := c.groups[gid]; g != nil {
		g.rot.Refresh(g.nodes)
	}
}

// waitServing returns a serving replica of gid, waiting for one until ctx
// ends.
func (c *Cluster) waitServing(ctx context.Context, gid types.GroupID) (*reconfig.Node, error) {
	for {
		n, err := c.pick(gid)
		if err == nil && n.Serving() {
			return n, nil
		}
		if err != nil && !errors.Is(err, ErrNoReplica) {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: group %d: %w", ErrNoReplica, gid, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Submit executes one command on group gid via an in-process submit on the
// replica the group's rotation picks. It does not retry: a transient outage
// surfaces as an error, ErrNoReplica when the command reached no node.
func (c *Cluster) Submit(ctx context.Context, gid types.GroupID, client types.NodeID, seq uint64, op []byte) ([]byte, error) {
	n, err := c.pick(gid)
	if err != nil {
		return nil, err
	}
	reply, err := n.Submit(ctx, client, seq, op)
	if errors.Is(err, reconfig.ErrNotServing) {
		c.refresh(gid)
	}
	return reply, err
}

// Reconfigure moves group gid to the given member set. Target processes that
// do not yet host a replica get an idle one first (state arrives via chunked
// snapshot transfer), which is exactly how a shard migrates: the keyspace
// owned by the group follows its replicas to the new processes. It retries
// while no replica serves; reconfig.ErrConflict (a concurrent change won) is
// returned with the configuration that was chosen.
func (c *Cluster) Reconfigure(ctx context.Context, gid types.GroupID, members []types.NodeID) (types.Config, error) {
	for _, id := range members {
		if _, err := c.AddReplica(gid, id); err != nil {
			return types.Config{}, err
		}
	}
	for {
		// Only a serving replica can propose the change; right after an
		// earlier move there may be none until the first joiner installs.
		n, err := c.waitServing(ctx, gid)
		if err != nil {
			return types.Config{}, err
		}
		cfg, err := n.Reconfigure(ctx, members)
		c.refresh(gid)
		if !errors.Is(err, reconfig.ErrNotServing) {
			return cfg, err
		}
	}
}

// WaitServing blocks until the replica of gid on every listed process
// serves the group's current configuration; with none listed, until some
// replica does.
func (c *Cluster) WaitServing(ctx context.Context, gid types.GroupID, procs ...types.NodeID) error {
	if len(procs) == 0 {
		_, err := c.waitServing(ctx, gid)
		return err
	}
	for _, id := range procs {
		n := c.Node(gid, id)
		if n == nil {
			return fmt.Errorf("cluster: group %d has no replica on %s", gid, id)
		}
		if err := n.WaitServing(ctx); err != nil {
			return fmt.Errorf("node %s: %w", id, err)
		}
	}
	return nil
}

// Stats aggregates the replica counters of one group.
func (c *Cluster) Stats(gid types.GroupID) GroupStats {
	out := GroupStats{Group: gid}
	for _, n := range c.nodes(gid) {
		st := n.Stats()
		out.Applied += st.Applied
		out.InvariantViolations += st.InvariantViolations
	}
	return out
}

// TotalViolations sums invariant violations over every running replica;
// tests assert it stays zero.
func (c *Cluster) TotalViolations() int64 {
	var total int64
	for _, gid := range c.Groups() {
		total += c.Stats(gid).InvariantViolations
	}
	return total
}

// NewClient opens a client session with an auto-assigned ID against the
// default group, seeded with its current members.
func (c *Cluster) NewClient(opts client.Options) *client.Client {
	seeds := c.Members(0)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextClient++
	// The PID keeps session IDs distinct across process restarts over the
	// same storage dir: a fresh process's (client, seq) pairs must not alias
	// recovered session-table entries, or its first commands would be
	// deduplicated into another life's cached replies.
	id := types.NodeID(fmt.Sprintf("client-%d-%d", os.Getpid(), c.nextClient))
	cl := client.New(id, c.net.Endpoint(id), seeds, opts)
	c.clients = append(c.clients, cl)
	return cl
}
