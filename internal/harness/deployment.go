// Package harness runs the simulated-fabric experiments of DESIGN.md §4
// (cmd/rsmbench is their front-end): it deploys the paper's composed
// reconfigurable SMR as the default group of one cluster.Cluster on in-memory
// stores, drives client load, injects reconfigurations and failures, and
// reports tables.
//
// The disruption experiments submit in-process through the cluster (no client
// RPC plane in the way); the megaload ones go through the real client library.
package harness

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/reconfig"
	"repro/internal/statemachine"
	"repro/internal/transport"
	"repro/internal/types"
)

// Tuning holds what every run of an experiment shares: the simulated fabric
// and the composed system's node options, which the experiments set directly
// (t.Node.Paxos.BatchSize, t.Node.SpeculativeStart, ...).
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

// deploy starts a cluster whose default group 0 has `initial` as
// configuration 1 and `spares` started but idle. The experiments submit to and
// reconfigure group 0, and reach into the cluster for faults (Network,
// Crash/Restart) and per-node reads (Node).
func deploy(t Tuning, factory statemachine.Factory, initial, spares []types.NodeID) (*cluster.Cluster, error) {
	dep := cluster.New(cluster.Config{Transport: t.Net, Node: t.Node})
	err := dep.CreateGroup(0, initial, factory)
	for _, id := range spares {
		if err == nil {
			_, err = dep.AddReplica(0, id)
		}
	}
	if err != nil {
		dep.Close()
		return nil, err
	}
	return dep, nil
}

// nodeStats returns the counters of every running node.
func nodeStats(dep *cluster.Cluster) []reconfig.NodeStats {
	var out []reconfig.NodeStats
	for _, id := range dep.Processes() {
		if n := dep.Node(0, id); n != nil {
			out = append(out, n.Stats())
		}
	}
	return out
}

// readStats sums the fast-read, fenced-read and inbox-drop counters over all
// nodes.
func readStats(dep *cluster.Cluster) (fast, fenced, dropped int64) {
	for _, st := range nodeStats(dep) {
		fast += st.FastReads
		fenced += st.ReadFenced
		dropped += st.DroppedInbound
	}
	return fast, fenced, dropped
}

// TransferStats aggregates the state-transfer counters over a cluster:
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

// transferStats sums the chunked-transfer counters over all nodes.
func transferStats(dep *cluster.Cluster) TransferStats {
	var out TransferStats
	for _, st := range nodeStats(dep) {
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

// firstDecideIn returns the earliest moment any of the given nodes learned a
// decided slot of configuration id — the joiners' time-to-first-decide
// numerator for the R2 shootout. ok is false when none has decided yet.
func firstDecideIn(dep *cluster.Cluster, members []types.NodeID, id types.ConfigID) (time.Time, bool) {
	var best time.Time
	found := false
	for _, m := range members {
		n := dep.Node(0, m)
		if n == nil {
			continue
		}
		if t, ok := n.FirstDecide(id); ok && (!found || t.Before(best)) {
			best, found = t, true
		}
	}
	return best, found
}
