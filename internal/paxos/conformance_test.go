package paxos_test

import (
	"testing"
	"time"

	"repro/internal/paxos"
	"repro/internal/smr"
	"repro/internal/smr/smrtest"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// cleanNet is the benign network the plain conformance runs use.
var cleanNet = transport.Options{
	BaseLatency: 100 * time.Microsecond,
	Jitter:      100 * time.Microsecond,
	Seed:        2,
}

// adversarialNet degrades every link: 3% loss, 2% duplication and heavy
// jitter. The conformance contract must hold unchanged — message loss may
// slow agreement down but must never break safety or dedup.
var adversarialNet = transport.Options{
	BaseLatency: 100 * time.Microsecond,
	Jitter:      500 * time.Microsecond,
	LossRate:    0.03,
	DupRate:     0.02,
	Seed:        2,
}

// TestPaxosConformance runs the shared smr.Engine conformance suite against
// the static Paxos engine on the in-memory store.
func TestPaxosConformance(t *testing.T) {
	smrtest.Run(t, factoryWithStore(cleanNet, func(t *testing.T, id types.NodeID) storage.Store {
		return storage.NewMem()
	}))
}

// TestPaxosConformanceWAL runs the same suite with every replica persisting
// through the group-commit WAL store in synchronous mode, proving the WAL
// backend satisfies the acceptor durability contract end to end.
func TestPaxosConformanceWAL(t *testing.T) {
	smrtest.Run(t, factoryWithStore(cleanNet, func(t *testing.T, id types.NodeID) storage.Store {
		s, err := storage.OpenWALStore(t.TempDir(), storage.WALStoreOptions{SyncWrites: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		return s
	}))
}

// TestPaxosConformanceAdversarial reruns the suite over a lossy, jittery,
// duplicating network.
func TestPaxosConformanceAdversarial(t *testing.T) {
	smrtest.Run(t, factoryWithStore(adversarialNet, func(t *testing.T, id types.NodeID) storage.Store {
		return storage.NewMem()
	}))
}

func factoryWithStore(netOpts transport.Options, newStore func(t *testing.T, id types.NodeID) storage.Store) func(*testing.T, []types.NodeID) smrtest.Cluster {
	return func(t *testing.T, members []types.NodeID) smrtest.Cluster {
		net := transport.NewNetwork(netOpts)
		cfg := types.MustConfig(1, members...)
		engines := make(map[types.NodeID]smr.Engine, len(members))
		for _, id := range members {
			// The conformance suite observes raw decisions, one per proposed
			// command; batching would deliver CmdBatch envelopes (unpacked
			// only by the composition layers).
			opts := paxos.Unbatched(paxos.Options{TickInterval: time.Millisecond})
			rep, err := paxos.New(cfg, id, net.Endpoint(id), newStore(t, id), 1, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Start(); err != nil {
				t.Fatal(err)
			}
			engines[id] = rep
		}
		return smrtest.Cluster{
			Engines: engines,
			Network: net,
			Cleanup: func() {
				for _, e := range engines {
					e.Stop()
				}
				net.Close()
			},
		}
	}
}
