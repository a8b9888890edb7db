// Package lincheck decides whether a concurrent operation history is
// linearizable with respect to a sequential model. The algorithm is the
// Wing–Gill search with Lowe's memoization (the same shape as porcupine): a
// depth-first enumeration of linearization points over a doubly-linked list
// of call/return events, pruned by a cache of (linearized-set, state)
// configurations already proven fruitless.
//
// Two refinements matter for histories recorded under faults:
//
//   - Ambiguous operations (history.OutcomeInfo) have no observed output and
//     no return bound. They MAY linearize — at any point after their call —
//     or may never have executed at all. The search therefore only requires
//     the completed operations to linearize; ambiguous ones are optional
//     interleavings whose effect (if chosen) follows the model's transition
//     for an unknown output.
//
//   - Models can declare a Partition function (e.g. per-key for a register
//     KV): each partition is checked independently, which turns the
//     exponential search into many small ones and lets 10k+-op histories
//     check in well under a second.
package lincheck

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/history"
)

// Operation is one client operation as seen by the checker.
type Operation struct {
	Client string
	Input  []byte
	Output []byte // valid only when HasOutput
	Call   int64  // invocation timestamp (any monotonic unit)
	Return int64  // completion timestamp; ignored when !HasOutput
	// HasOutput marks a completed operation: it must linearize within
	// [Call, Return] and its Output must match the model. Operations
	// without an output are ambiguous: they may linearize anywhere at or
	// after Call, or not at all.
	HasOutput bool
}

// Model is a sequential specification. States are opaque values; Step must
// treat its input state as immutable and return a fresh state on mutation.
type Model struct {
	Name string
	// Init returns the initial state.
	Init func() any
	// Step applies input to state. When hasOutput is true it returns
	// whether output is the legal result; when false (ambiguous op) it
	// applies the operation's deterministic effect and returns true.
	Step func(state any, input, output []byte, hasOutput bool) (bool, any)
	// Equal reports state equality; Hash must agree with it.
	Equal func(a, b any) bool
	Hash  func(state any) uint64
	// Partition optionally splits a history into independently-checkable
	// sub-histories (nil = single partition).
	Partition func(ops []Operation) [][]Operation
	// DescribeOp and DescribeState render counterexamples (optional).
	DescribeOp    func(input, output []byte, hasOutput bool) string
	DescribeState func(state any) string
}

// Options tunes a Check run.
type Options struct {
	// Timeout bounds the whole check; on expiry the result is Unknown.
	// Zero means no limit.
	Timeout time.Duration
}

// Result is the verdict for one history.
type Result struct {
	Ok         bool // history is linearizable
	Unknown    bool // timed out before a verdict; Ok is meaningless
	Ops        int  // operations checked (completed + ambiguous)
	Completed  int  // operations with observed outputs
	Partitions int
	Elapsed    time.Duration
	// Counterexample holds a human-readable dump of a minimized failing
	// partition when Ok is false.
	Counterexample string
}

// Check decides linearizability of ops against m.
func Check(m Model, ops []Operation, opts Options) Result {
	start := time.Now()
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = start.Add(opts.Timeout)
	}
	parts := [][]Operation{ops}
	if m.Partition != nil {
		parts = m.Partition(ops)
	}
	res := Result{Ok: true, Partitions: len(parts)}
	for _, p := range parts {
		res.Ops += len(p)
		for _, op := range p {
			if op.HasOutput {
				res.Completed++
			}
		}
	}
	for _, p := range parts {
		ok, unknown := checkPartition(m, p, deadline)
		if unknown {
			res.Unknown = true
			res.Ok = false
			break
		}
		if !ok {
			res.Ok = false
			res.Counterexample = counterexample(m, p, deadline)
			break
		}
	}
	res.Elapsed = time.Since(start)
	return res
}

// CheckHistory converts a recorded history and checks it. Failed operations
// are dropped (they never executed); pending and ambiguous operations become
// output-less checker operations.
func CheckHistory(m Model, ops []history.Op, opts Options) Result {
	return Check(m, FromHistory(ops), opts)
}

// FromHistory converts recorder output to checker operations.
func FromHistory(ops []history.Op) []Operation {
	out := make([]Operation, 0, len(ops))
	for _, op := range ops {
		switch op.Outcome {
		case history.OutcomeOk:
			ret := op.Return
			if ret <= op.Call {
				ret = op.Call + 1
			}
			out = append(out, Operation{
				Client:    string(op.Client),
				Input:     op.Input,
				Output:    op.Output,
				Call:      op.Call,
				Return:    ret,
				HasOutput: true,
			})
		case history.OutcomePending, history.OutcomeInfo:
			out = append(out, Operation{
				Client: string(op.Client),
				Input:  op.Input,
				Call:   op.Call,
			})
		case history.OutcomeFail:
			// Certainly never executed; irrelevant to linearizability.
		}
	}
	return out
}

// event node in the doubly-linked search list. A completed operation
// contributes a call node and a return node; an ambiguous one only a call
// node (match == nil).
type node struct {
	op    int // index into the partition's op slice
	isRet bool
	match *node // call -> its return node (nil for ambiguous calls)
	prev  *node
	next  *node
}

func lift(call *node) {
	call.prev.next = call.next
	if call.next != nil {
		call.next.prev = call.prev
	}
	if ret := call.match; ret != nil {
		ret.prev.next = ret.next
		if ret.next != nil {
			ret.next.prev = ret.prev
		}
	}
}

func unlift(call *node) {
	if ret := call.match; ret != nil {
		ret.prev.next = ret
		if ret.next != nil {
			ret.next.prev = ret
		}
	}
	call.prev.next = call
	if call.next != nil {
		call.next.prev = call
	}
}

// buildList lays out call/return events in time order behind a sentinel
// head. Ties put calls before returns: overlapping-at-the-boundary ops are
// treated as concurrent, which can only make the checker more permissive —
// never a false rejection.
func buildList(ops []Operation) *node {
	type ev struct {
		t     int64
		isRet bool
		op    int
	}
	evs := make([]ev, 0, 2*len(ops))
	for i, op := range ops {
		evs = append(evs, ev{t: op.Call, op: i})
		if op.HasOutput {
			evs = append(evs, ev{t: op.Return, isRet: true, op: i})
		}
	}
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].t != evs[b].t {
			return evs[a].t < evs[b].t
		}
		return !evs[a].isRet && evs[b].isRet
	})
	head := &node{op: -1}
	prev := head
	calls := make(map[int]*node, len(ops))
	for _, e := range evs {
		n := &node{op: e.op, isRet: e.isRet, prev: prev}
		prev.next = n
		prev = n
		if e.isRet {
			calls[e.op].match = n
		} else {
			calls[e.op] = n
		}
	}
	return head
}

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)   { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) clear(i int) { b[i/64] &^= 1 << (uint(i) % 64) }

func (b bitset) clone() bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

func (b bitset) equals(o bitset) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

func (b bitset) hash() uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	for _, w := range b {
		h ^= w
		h *= 1099511628211
	}
	return h
}

type cacheEntry struct {
	lin   bitset
	state any
}

// checkPartition runs the WGL search over one partition. It returns
// (linearizable, timedOut).
func checkPartition(m Model, ops []Operation, deadline time.Time) (bool, bool) {
	completed := 0
	for _, op := range ops {
		if op.HasOutput {
			completed++
		}
	}
	if completed == 0 {
		return true, false // nothing observed, trivially fine
	}
	head := buildList(ops)
	state := m.Init()
	linearized := newBitset(len(ops))
	cache := make(map[uint64][]cacheEntry)
	type frame struct {
		call  *node
		state any
	}
	var stack []frame
	remaining := completed
	entry := head.next
	steps := 0
	for remaining > 0 {
		steps++
		if steps%4096 == 0 && !deadline.IsZero() && time.Now().After(deadline) {
			return false, true
		}
		if entry != nil && !entry.isRet {
			op := ops[entry.op]
			ok, next := m.Step(state, op.Input, op.Output, op.HasOutput)
			if ok {
				linearized.set(entry.op)
				key := linearized.hash() ^ m.Hash(next)
				if cacheHit(cache[key], linearized, next, m) {
					linearized.clear(entry.op)
					entry = entry.next
					continue
				}
				cache[key] = append(cache[key], cacheEntry{lin: linearized.clone(), state: next})
				stack = append(stack, frame{call: entry, state: state})
				state = next
				if op.HasOutput {
					remaining--
				}
				lift(entry)
				entry = head.next
				continue
			}
			entry = entry.next
			continue
		}
		// A return node (some completed op could not linearize before its
		// own return) or the end of the list: backtrack.
		if len(stack) == 0 {
			return false, false
		}
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		state = f.state
		linearized.clear(f.call.op)
		if ops[f.call.op].HasOutput {
			remaining++
		}
		unlift(f.call)
		entry = f.call.next
	}
	return true, false
}

func cacheHit(entries []cacheEntry, lin bitset, state any, m Model) bool {
	for _, e := range entries {
		if e.lin.equals(lin) && m.Equal(e.state, state) {
			return true
		}
	}
	return false
}

// minimizeBudget bounds greedy counterexample shrinking.
const minimizeBudget = 2 * time.Second

// counterexample produces a human-readable dump of a failing partition,
// greedily minimized: drop one op at a time, keep the removal whenever the
// remainder still fails, within minimizeBudget and the check's deadline.
func counterexample(m Model, ops []Operation, deadline time.Time) string {
	stop := time.Now().Add(minimizeBudget)
	if !deadline.IsZero() && deadline.Before(stop) {
		stop = deadline
	}
	minimized := append([]Operation(nil), ops...)
	for i := 0; i < len(minimized); {
		if time.Now().After(stop) {
			break
		}
		cand := append(append([]Operation(nil), minimized[:i]...), minimized[i+1:]...)
		if ok, unknown := checkPartition(m, cand, stop); !ok && !unknown {
			minimized = cand // still fails without op i: keep it out
			continue
		}
		i++
	}
	idx := make([]int, len(minimized))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return minimized[idx[a]].Call < minimized[idx[b]].Call })
	var b strings.Builder
	fmt.Fprintf(&b, "non-linearizable: %d op(s) (minimized from %d), model %s\n",
		len(minimized), len(ops), m.Name)
	const maxDump = 64
	for n, i := range idx {
		if n == maxDump {
			fmt.Fprintf(&b, "  ... %d more\n", len(idx)-maxDump)
			break
		}
		op := minimized[i]
		desc := fmt.Sprintf("in=%x out=%x", op.Input, op.Output)
		if m.DescribeOp != nil {
			desc = m.DescribeOp(op.Input, op.Output, op.HasOutput)
		}
		window := fmt.Sprintf("[%d, %d]", op.Call, op.Return)
		if !op.HasOutput {
			window = fmt.Sprintf("[%d, ?]", op.Call)
		}
		fmt.Fprintf(&b, "  %-8s %-40s %s\n", op.Client, desc, window)
	}
	return b.String()
}
