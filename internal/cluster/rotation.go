package cluster

import (
	"repro/internal/reconfig"
	"repro/internal/types"
)

// Rotation is the submit rotation over the replicas of one configuration
// chain: the newest known configuration's members, tried round-robin. It is
// the one rule for whom a command may be handed to; a Cluster keeps one per
// group, under the mutex that guards the group's replica map.
type Rotation struct {
	Order []types.NodeID
	rr    int
}

// Pick returns the next replica in the rotation that is serving or, failing
// that, one that is accepting: between the wedge and the first install of a
// full member replacement no successor member serves yet, but under
// speculative start every one of them orders commands and parks the replies
// until its snapshot is in. When the rotation yields nobody it re-learns the
// member set from the replicas and goes round once more; nil means there is
// nobody to submit to right now.
func (r *Rotation) Pick(nodes map[types.NodeID]*reconfig.Node) *reconfig.Node {
	if n := r.next(nodes); n != nil {
		return n
	}
	r.Refresh(nodes)
	return r.next(nodes)
}

func (r *Rotation) next(nodes map[types.NodeID]*reconfig.Node) *reconfig.Node {
	var accepting *reconfig.Node
	for range r.Order {
		r.rr++
		n := nodes[r.Order[r.rr%len(r.Order)]]
		if n == nil {
			continue
		}
		if n.Serving() {
			return n
		}
		if accepting == nil && n.Accepting() {
			accepting = n
		}
	}
	return accepting
}

// Refresh re-learns the member set from the replicas' newest configuration.
func (r *Rotation) Refresh(nodes map[types.NodeID]*reconfig.Node) {
	best := types.Config{}
	for _, n := range nodes {
		if cfg := n.CurrentConfig(); cfg.ID > best.ID {
			best = cfg
		}
	}
	if best.ID != 0 {
		r.Order = best.Members
	}
}
