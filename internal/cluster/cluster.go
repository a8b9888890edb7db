// Package cluster orchestrates a complete reconfigurable-SMR deployment over
// the simulated network: booting the initial configuration, adding spares,
// crashing/restarting/isolating nodes, opening client sessions, and driving
// reconfigurations. Tests, examples, the benchmark harness and the CLI tools
// all build on it.
package cluster

import (
	"context"
	"fmt"
	"os"
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
	// Node configures every reconfig node.
	Node reconfig.Options
	// Factory builds each node's state machine.
	Factory statemachine.Factory
	// Storage selects each node's backend: StorageMem (default) or
	// StorageWAL.
	Storage string
	// StorageDir roots the on-disk backends, one subdirectory per node.
	// Empty means a fresh OS temp directory removed on Close.
	StorageDir string
	// SyncWrites makes on-disk backends fsync before acknowledging writes.
	SyncWrites bool
}

// FastOptions returns node timing suitable for tests and local experiments:
// 1ms consensus ticks and aggressive retry/linger intervals.
func FastOptions() reconfig.Options {
	return reconfig.Options{
		Paxos: paxos.Options{
			TickInterval:         time.Millisecond,
			HeartbeatEveryTicks:  2,
			ElectionTimeoutTicks: 10,
			ElectionJitterTicks:  10,
		},
		RetryInterval:  10 * time.Millisecond,
		LingerOld:      500 * time.Millisecond,
		FetchTimeout:   150 * time.Millisecond,
		StaleJumpTicks: 15,
		GossipTicks:    20,
	}
}

// Cluster is a running deployment.
type Cluster struct {
	cfg Config
	net *transport.Network

	mu         sync.Mutex
	nodes      map[types.NodeID]*reconfig.Node
	stores     map[types.NodeID]storage.Store
	backing    Stores // opens the stores above and owns their files
	clients    []*client.Client
	nextClient int
	seeds      []types.NodeID
	closed     bool
}

// New creates an empty cluster (no nodes yet).
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
		nodes:   make(map[types.NodeID]*reconfig.Node),
		stores:  make(map[types.NodeID]storage.Store),
		backing: cfg.stores(),
	}
}

func (cfg Config) stores() Stores {
	return Stores{Backend: cfg.Storage, Dir: cfg.StorageDir, SyncWrites: cfg.SyncWrites}
}

// Close stops every node and client and tears down the network.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	nodes := make([]*reconfig.Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
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

// Network exposes the underlying simulated network for fault injection and
// accounting.
func (c *Cluster) Network() *transport.Network { return c.net }

// newNodeLocked constructs (but does not bootstrap) a node, reusing any
// existing store so crash/restart cycles keep their disk.
func (c *Cluster) newNodeLocked(id types.NodeID) (*reconfig.Node, error) {
	st, ok := c.stores[id]
	if !ok {
		var err error
		if st, err = c.backing.Open(id); err != nil {
			return nil, err
		}
		c.stores[id] = st
	}
	n, err := reconfig.NewNode(reconfig.NodeConfig{
		Self:     id,
		Endpoint: c.net.Endpoint(id),
		Store:    st,
		Factory:  c.cfg.Factory,
		Opts:     c.cfg.Node,
	})
	if err != nil {
		return nil, err
	}
	c.nodes[id] = n
	return n, nil
}

// Bootstrap creates, bootstraps and starts the initial configuration.
func (c *Cluster) Bootstrap(members ...types.NodeID) (types.Config, error) {
	cfg, err := types.NewConfig(1, members)
	if err != nil {
		return types.Config{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return types.Config{}, reconfig.ErrStopped
	}
	c.seeds = cfg.Members
	for _, id := range cfg.Members {
		n, err := c.newNodeLocked(id)
		if err != nil {
			return types.Config{}, err
		}
		if err := n.Bootstrap(cfg); err != nil {
			return types.Config{}, err
		}
		if err := n.Start(); err != nil {
			return types.Config{}, err
		}
	}
	return cfg, nil
}

// AddSpare starts a node with an empty store; it idles until reconfigured in.
func (c *Cluster) AddSpare(id types.NodeID) (*reconfig.Node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, reconfig.ErrStopped
	}
	if _, ok := c.nodes[id]; ok {
		return nil, fmt.Errorf("cluster: node %s already exists", id)
	}
	n, err := c.newNodeLocked(id)
	if err != nil {
		return nil, err
	}
	if err := n.Start(); err != nil {
		return nil, err
	}
	return n, nil
}

// Node returns the running node for id (nil if crashed or unknown).
func (c *Cluster) Node(id types.NodeID) *reconfig.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[id]
}

// Nodes returns the IDs of all running nodes, sorted.
func (c *Cluster) Nodes() []types.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]types.NodeID, 0, len(c.nodes))
	for id := range c.nodes {
		out = append(out, id)
	}
	return types.SortNodeIDs(out)
}

// Crash stops a node's process. Its store survives for a later Restart.
func (c *Cluster) Crash(id types.NodeID) {
	c.mu.Lock()
	n := c.nodes[id]
	delete(c.nodes, id)
	c.mu.Unlock()
	if n != nil {
		n.Stop()
	}
}

// Restart boots a previously crashed node from its surviving store.
func (c *Cluster) Restart(id types.NodeID) (*reconfig.Node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, reconfig.ErrStopped
	}
	if _, ok := c.nodes[id]; ok {
		return nil, fmt.Errorf("cluster: node %s already running", id)
	}
	if _, ok := c.stores[id]; !ok {
		return nil, fmt.Errorf("cluster: node %s has no store to restart from", id)
	}
	n, err := c.newNodeLocked(id)
	if err != nil {
		return nil, err
	}
	if err := n.Start(); err != nil {
		return nil, err
	}
	return n, nil
}

// NewClient opens a client session with an auto-assigned ID.
func (c *Cluster) NewClient(opts client.Options) *client.Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextClient++
	// The PID keeps session IDs distinct across process restarts over the
	// same storage dir: a fresh process's (client, seq) pairs must not alias
	// recovered session-table entries, or its first commands would be
	// deduplicated into another life's cached replies.
	id := types.NodeID(fmt.Sprintf("client-%d-%d", os.Getpid(), c.nextClient))
	cl := client.New(id, c.net.Endpoint(id), c.seeds, opts)
	c.clients = append(c.clients, cl)
	return cl
}

// Reconfigure drives a membership change through the given member node.
func (c *Cluster) Reconfigure(ctx context.Context, via types.NodeID, members []types.NodeID) (types.Config, error) {
	n := c.Node(via)
	if n == nil {
		return types.Config{}, fmt.Errorf("cluster: node %s is not running", via)
	}
	return n.Reconfigure(ctx, members)
}

// WaitServing blocks until every listed node serves the current config.
func (c *Cluster) WaitServing(ctx context.Context, ids ...types.NodeID) error {
	for _, id := range ids {
		n := c.Node(id)
		if n == nil {
			return fmt.Errorf("cluster: node %s is not running", id)
		}
		if err := n.WaitServing(ctx); err != nil {
			return fmt.Errorf("node %s: %w", id, err)
		}
	}
	return nil
}

// TotalViolations sums invariant violations across running nodes; tests and
// the harness assert it stays zero.
func (c *Cluster) TotalViolations() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for _, n := range c.nodes {
		total += n.Stats().InvariantViolations
	}
	return total
}
