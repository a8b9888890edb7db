// Package nemesis generates and executes deterministic fault schedules
// against a replicated cluster. Generate is a pure function of (seed,
// profile): the same inputs always produce the same []Step, so any failing
// chaos run replays byte-for-byte from its printed seed. Execute drives a
// schedule against anything implementing Cluster — the in-process transport
// simulator plus reconfig nodes, or a cluster.Cluster, in tests.
package nemesis

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/types"
)

// Kind enumerates fault types. Values start at 1.
type Kind uint8

const (
	// KindPartition splits the node pool into two connected halves.
	KindPartition Kind = 1
	// KindIsolate cuts one node off from everyone else.
	KindIsolate Kind = 2
	// KindCrashRestart stops a node and restarts it over the same store
	// (same StorageDir for on-disk backends), i.e. a process crash.
	KindCrashRestart Kind = 3
	// KindReconfigure moves the cluster to a random member subset.
	KindReconfigure Kind = 4
	// KindLeaderKill crash-restarts whichever node currently leads.
	KindLeaderKill Kind = 5
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindPartition:
		return "partition"
	case KindIsolate:
		return "isolate"
	case KindCrashRestart:
		return "crash-restart"
	case KindReconfigure:
		return "reconfigure"
	case KindLeaderKill:
		return "leader-kill"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// AllKinds is the default fault mix.
var AllKinds = []Kind{KindPartition, KindIsolate, KindCrashRestart, KindReconfigure, KindLeaderKill}

// Step is one scheduled fault. Exactly the fields relevant to its Kind are
// set; a leader-kill resolves its victim at execution time.
type Step struct {
	Kind    Kind
	Sides   [][]types.NodeID // KindPartition: the two halves
	Target  types.NodeID     // KindIsolate, KindCrashRestart
	Members []types.NodeID   // KindReconfigure: the next configuration
	Hold    time.Duration    // how long the fault stays active before healing
	Settle  time.Duration    // quiet time after healing, before the next step
}

// String renders a step for logs.
func (s Step) String() string {
	switch s.Kind {
	case KindPartition:
		return fmt.Sprintf("partition %v | %v hold=%s", s.Sides[0], s.Sides[1], s.Hold)
	case KindIsolate:
		return fmt.Sprintf("isolate %s hold=%s", s.Target, s.Hold)
	case KindCrashRestart:
		return fmt.Sprintf("crash-restart %s hold=%s", s.Target, s.Hold)
	case KindReconfigure:
		return fmt.Sprintf("reconfigure -> %v", s.Members)
	case KindLeaderKill:
		return fmt.Sprintf("leader-kill hold=%s", s.Hold)
	default:
		return s.Kind.String()
	}
}

// Profile describes the space of schedules Generate draws from.
type Profile struct {
	// Pool is the full set of nodes faults may touch (including spares).
	Pool []types.NodeID
	// Steps is the schedule length.
	Steps int
	// Kinds is the enabled fault mix (nil = AllKinds), drawn uniformly.
	Kinds []Kind
	// MinMembers/MaxMembers bound reconfiguration target sizes
	// (defaults 3 and len(Pool)).
	MinMembers int
	MaxMembers int
	// Hold is how long each fault stays active (default 80ms).
	Hold time.Duration
	// Settle is the pause after each heal (default 60ms).
	Settle time.Duration
}

func (p Profile) withDefaults() Profile {
	if p.Kinds == nil {
		p.Kinds = AllKinds
	}
	if p.MinMembers == 0 {
		p.MinMembers = 3
	}
	if p.MaxMembers == 0 || p.MaxMembers > len(p.Pool) {
		p.MaxMembers = len(p.Pool)
	}
	if p.Hold == 0 {
		p.Hold = 80 * time.Millisecond
	}
	if p.Settle == 0 {
		p.Settle = 60 * time.Millisecond
	}
	return p
}

// Generate derives a fault schedule deterministically from seed. It is pure:
// equal (seed, profile) inputs yield equal schedules.
func Generate(seed int64, p Profile) []Step {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	steps := make([]Step, 0, p.Steps)
	for i := 0; i < p.Steps; i++ {
		kind := p.Kinds[rng.Intn(len(p.Kinds))]
		st := Step{Kind: kind, Hold: p.Hold, Settle: p.Settle}
		switch kind {
		case KindPartition:
			perm := rng.Perm(len(p.Pool))
			cut := 1 + rng.Intn(len(p.Pool)-1)
			a := make([]types.NodeID, 0, cut)
			b := make([]types.NodeID, 0, len(p.Pool)-cut)
			for _, idx := range perm[:cut] {
				a = append(a, p.Pool[idx])
			}
			for _, idx := range perm[cut:] {
				b = append(b, p.Pool[idx])
			}
			st.Sides = [][]types.NodeID{a, b}
		case KindIsolate, KindCrashRestart:
			st.Target = p.Pool[rng.Intn(len(p.Pool))]
		case KindReconfigure:
			span := p.MaxMembers - p.MinMembers + 1
			size := p.MinMembers + rng.Intn(span)
			perm := rng.Perm(len(p.Pool))
			members := make([]types.NodeID, 0, size)
			for _, idx := range perm[:size] {
				members = append(members, p.Pool[idx])
			}
			st.Members = members
		case KindLeaderKill:
			// Victim resolved at execution time via Cluster.Leader.
		}
		steps = append(steps, st)
	}
	return steps
}

// Cluster is the fault surface Execute drives. Implementations adapt the
// transport simulator plus whatever node runtime the test uses.
type Cluster interface {
	// Partition installs a network split between the given sides.
	Partition(sides ...[]types.NodeID)
	// Isolate cuts one node's links.
	Isolate(id types.NodeID)
	// Heal removes all network faults.
	Heal()
	// CrashRestart stops a node and restarts it over the same store.
	CrashRestart(ctx context.Context, id types.NodeID) error
	// Reconfigure moves the cluster to the given membership.
	Reconfigure(ctx context.Context, members []types.NodeID) error
	// Leader reports the current leader ("" if unknown).
	Leader() types.NodeID
}

// Stats counts what Execute actually did.
type Stats struct {
	Partitions  int
	Isolations  int
	Crashes     int // crash-restarts, including leader kills
	LeaderKills int
	Reconfigs   int // successful reconfigurations only
	Failed      int // steps whose action returned an error
}

// Total returns the number of injected faults.
func (s Stats) Total() int {
	return s.Partitions + s.Isolations + s.Crashes + s.Reconfigs
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	parts := []string{
		fmt.Sprintf("partitions=%d", s.Partitions),
		fmt.Sprintf("isolations=%d", s.Isolations),
		fmt.Sprintf("crashes=%d", s.Crashes),
		fmt.Sprintf("leader-kills=%d", s.LeaderKills),
		fmt.Sprintf("reconfigs=%d", s.Reconfigs),
	}
	if s.Failed > 0 {
		parts = append(parts, fmt.Sprintf("failed=%d", s.Failed))
	}
	return strings.Join(parts, " ")
}

// Execute runs a schedule to completion (or ctx cancellation), healing the
// network after every fault window. A step whose action errors is counted in
// Stats.Failed and the schedule continues: under churn a reconfiguration may
// legitimately time out and the point of the schedule is to keep going.
func Execute(ctx context.Context, c Cluster, steps []Step) Stats {
	var st Stats
	for _, step := range steps {
		if ctx.Err() != nil {
			break
		}
		switch step.Kind {
		case KindPartition:
			c.Partition(step.Sides...)
			st.Partitions++
			sleep(ctx, step.Hold)
			c.Heal()
		case KindIsolate:
			c.Isolate(step.Target)
			st.Isolations++
			sleep(ctx, step.Hold)
			c.Heal()
		case KindCrashRestart:
			if err := c.CrashRestart(ctx, step.Target); err != nil {
				st.Failed++
			} else {
				st.Crashes++
			}
			sleep(ctx, step.Hold)
		case KindLeaderKill:
			victim := c.Leader()
			if victim == "" {
				st.Failed++
				sleep(ctx, step.Hold)
				break
			}
			if err := c.CrashRestart(ctx, victim); err != nil {
				st.Failed++
			} else {
				st.Crashes++
				st.LeaderKills++
			}
			sleep(ctx, step.Hold)
		case KindReconfigure:
			if err := c.Reconfigure(ctx, step.Members); err != nil {
				st.Failed++
			} else {
				st.Reconfigs++
			}
		}
		sleep(ctx, step.Settle)
	}
	return st
}

func sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
