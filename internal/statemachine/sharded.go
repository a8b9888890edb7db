package statemachine

import (
	"runtime"
	"sync"

	"repro/internal/types"
)

// ShardedApplier is an optional Machine capability: classifying ops by the
// state shard they are confined to. Ops confined to distinct shards commute
// — applying them in any interleaving yields the same state and the same
// replies — so an apply stage may execute a decided batch with one worker
// per shard and still be indistinguishable from serial application in
// decided order. Like ReadOnly, OpShard must be conservative: when in doubt
// (malformed op, unknown opcode, an op that scans or touches more than one
// shard), report ok=false and the op becomes a barrier that runs alone,
// after everything before it in the batch and before everything after it.
type ShardedApplier interface {
	// OpShard returns the shard op is confined to. ok=false marks a
	// barrier op.
	OpShard(op []byte) (shard int, ok bool)
	// NumShards is the fixed shard count OpShard indexes into.
	NumShards() int
}

// Parallel-apply thresholds: below parallelApplyMinOps the goroutine
// handoff costs more than the work, and parallelApplyMaxWorkers bounds the
// per-batch fan-out regardless of shard count.
const (
	parallelApplyMinOps     = 16
	parallelApplyMaxWorkers = 8
)

// ApplyBatch applies a decided run of commands and returns the reply and
// duplicate flag for each, exactly as if ApplyCommand had been called on
// each command in order. With an inner machine that implements
// ShardedApplier, non-barrier commands are executed by per-shard workers;
// ApplyBatch returns only after every worker has joined, so the caller may
// treat its return as the point where all state mutations are visible (the
// wedge-drain rule relies on this). Otherwise — no capability, or a batch
// too small to be worth the fan-out — it degenerates to the serial loop.
//
// Equivalence argument: session deduplication is decided in a serial
// pre-pass that tracks, per client, the sequence number the session table
// would hold at each position of a serial execution; only commands that a
// serial execution would apply are handed to workers. Same-client commands
// land on the decided-order suffix of the pre-pass (a client's seq is
// strictly increasing across its applied commands), same-key commands land
// in the same shard queue (queues preserve decided order), and cross-shard
// commands are barriers. The session table itself is updated in a serial
// post-pass in decided order.
func (s *Sessioned) ApplyBatch(cmds []types.Command) (replies [][]byte, dups []bool) {
	replies = make([][]byte, len(cmds))
	dups = make([]bool, len(cmds))
	sharder, _ := s.inner.(ShardedApplier)
	if sharder == nil || len(cmds) < parallelApplyMinOps {
		for i, cmd := range cmds {
			replies[i], dups[i] = s.ApplyCommand(cmd)
		}
		return replies, dups
	}

	// Serial pre-pass: decide, in decided order, which commands a serial
	// execution would apply, and advance each session's seq exactly as that
	// serial execution would — command by command, so the outcome cannot
	// depend on where batch boundaries fall (replicas batch independently).
	// Replies land in the post-pass; until then a rewritten session
	// carries its previous lastReply, which nothing reads (an in-batch dup
	// links through dupOf instead).
	eff := make(map[types.NodeID]int) // client -> last in-batch writer index
	exec := make([]int, 0, len(cmds))
	shards := make([]int, len(cmds))
	barrier := make([]bool, len(cmds))
	dupOf := make(map[int]int)
	for i, cmd := range cmds {
		if cmd.Kind == types.CmdNoop {
			continue
		}
		if cmd.Client != "" {
			sess, exists := s.sessions[cmd.Client]
			if exists && cmd.Seq <= sess.lastSeq {
				dups[i] = true
				if cmd.Seq == sess.lastSeq {
					if j, ok := eff[cmd.Client]; ok {
						dupOf[i] = j
					} else {
						replies[i] = sess.lastReply
					}
				}
				continue // stale retry: nil reply, like ApplyCommand
			}
			s.sessions[cmd.Client] = sessionState{lastSeq: cmd.Seq, lastReply: sess.lastReply}
			eff[cmd.Client] = i
		}
		shards[i], barrier[i] = opShardChecked(sharder, cmds[i].Data)
		barrier[i] = !barrier[i]
		exec = append(exec, i)
	}

	// Execute: runs of non-barrier commands fan out to per-shard workers;
	// each barrier drains the current run and executes alone.
	group := make([]int, 0, len(exec))
	for _, i := range exec {
		if barrier[i] {
			s.runShardGroup(cmds, replies, shards, group)
			group = group[:0]
			replies[i] = s.inner.Apply(cmds[i].Data)
			continue
		}
		group = append(group, i)
	}
	s.runShardGroup(cmds, replies, shards, group)

	// Serial post-pass: fill in each session's reply (the pre-pass already
	// advanced its seq), then link duplicate replies to the command that
	// produced them.
	for _, i := range exec {
		c := cmds[i].Client
		if c == "" || eff[c] != i {
			continue // not this client's final in-batch write
		}
		s.sessions[c] = sessionState{lastSeq: cmds[i].Seq, lastReply: replies[i]}
	}
	for i, j := range dupOf {
		replies[i] = replies[j]
	}
	return replies, dups
}

// opShardChecked guards against a sharder whose shard index is out of its
// declared range — such an op is treated as a barrier rather than indexing
// a foreign worker queue.
func opShardChecked(sharder ShardedApplier, op []byte) (int, bool) {
	sh, ok := sharder.OpShard(op)
	if !ok || sh < 0 || sh >= sharder.NumShards() {
		return 0, false
	}
	return sh, true
}

// runShardGroup executes a run of shard-confined commands, one worker per
// set of shards, writing each reply to its own slot. Commands on the same
// shard stay in decided order (one queue per shard, queues are processed
// front to back); commands on distinct shards commute, so interleaving is
// free. Returns only after all workers join.
func (s *Sessioned) runShardGroup(cmds []types.Command, replies [][]byte, shards []int, group []int) {
	if len(group) == 0 {
		return
	}
	queues := make(map[int][]int, parallelApplyMaxWorkers)
	order := make([]int, 0, parallelApplyMaxWorkers)
	for _, i := range group {
		sh := shards[i]
		if _, ok := queues[sh]; !ok {
			order = append(order, sh)
		}
		queues[sh] = append(queues[sh], i)
	}
	workers := len(order)
	if workers > parallelApplyMaxWorkers {
		workers = parallelApplyMaxWorkers
	}
	if procs := runtime.GOMAXPROCS(0); workers > procs {
		workers = procs
	}
	if workers <= 1 {
		for _, i := range group {
			replies[i] = s.inner.Apply(cmds[i].Data)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for q := w; q < len(order); q += workers {
				for _, i := range queues[order[q]] {
					replies[i] = s.inner.Apply(cmds[i].Data)
				}
			}
		}(w)
	}
	wg.Wait()
}
