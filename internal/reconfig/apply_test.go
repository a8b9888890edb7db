package reconfig

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/smr"
	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// scriptedEngine is a one-member engine whose decisions the test writes into
// its channel itself; it proposes nothing. It refuses every read index until
// the test sets readIndex, and then answers with it inside ReadIndex.
type scriptedEngine struct {
	decs      chan smr.Decision
	stopOnce  sync.Once
	readIndex atomic.Uint64
}

func (e *scriptedEngine) Start() error                   { return nil }
func (e *scriptedEngine) Stop()                          { e.stopOnce.Do(func() { close(e.decs) }) }
func (e *scriptedEngine) Propose(types.Command) error    { return nil }
func (e *scriptedEngine) Decisions() <-chan smr.Decision { return e.decs }
func (e *scriptedEngine) Leader() (types.NodeID, bool)   { return "", false }
func (e *scriptedEngine) ReadIndex(done func(types.Slot, error)) error {
	if index := e.readIndex.Load(); index > 0 {
		done(types.Slot(index), nil)
		return nil
	}
	return smr.ErrNotLeader
}
func (e *scriptedEngine) Progress() smr.Progress { return smr.Progress{} }
func (e *scriptedEngine) Counters() smr.Counters { return smr.Counters{} }

// scriptedFactory builds one scripted engine per stream and keeps it for the
// test to feed.
type scriptedFactory struct {
	mu   sync.Mutex
	engs map[uint64]*scriptedEngine
}

func (f *scriptedFactory) New(_ types.Config, _ types.NodeID, _ *transport.Endpoint, _ storage.Store, stream uint64) (smr.Replica, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e := &scriptedEngine{decs: make(chan smr.Decision, 16)}
	f.engs[stream] = e
	return e, nil
}

func (f *scriptedFactory) Discard(storage.Stager, uint64) error { return nil }

func (f *scriptedFactory) engine(t *testing.T, stream uint64) *scriptedEngine {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		f.mu.Lock()
		e := f.engs[stream]
		f.mu.Unlock()
		if e != nil {
			return e
		}
		if time.Now().After(deadline) {
			t.Fatalf("no engine of configuration %d was built", stream)
		}
		time.Sleep(time.Millisecond)
	}
}

// add is client c's seq-th command, adding 1.
func add(seq int) types.Command {
	return types.Command{Kind: types.CmdApp, Client: "c", Seq: uint64(seq), Data: statemachine.EncodeAdd(1)}
}

// scriptedNode starts a one-member node of a counter over scripted engines,
// with a log bound of bound slots.
func scriptedNode(t *testing.T, bound int) (*Node, *scriptedFactory) {
	t.Helper()
	net := transport.NewNetwork(transport.Options{})
	t.Cleanup(net.Close)
	f := &scriptedFactory{engs: make(map[uint64]*scriptedEngine)}
	opts := fastNodeOpts()
	opts.engine = f
	opts.logBound = bound
	n, err := NewNode(NodeConfig{Self: "n1", Endpoint: net.Endpoint("n1"), Store: storage.NewMem(), Opts: opts,
		Factory: statemachine.NewCounterMachine})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Bootstrap(types.MustConfig(1, "n1")); err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return n, f
}

// The log bound ends a configuration at its last slot, after that slot's
// whole batch, unless a decided reconfiguration ended it first: the successor
// has the next ID and the same members, nothing past the bound is applied in
// the old configuration, and the successor's log starts at slot 1 from the
// wedge-time state. A reconfiguration anywhere in the bound's slot wedges
// there instead; a stale one is a no-op and the bound still holds.
func TestLogBoundWedgesAfterTheSlotsWholeBatch(t *testing.T) {
	const bound = 5
	twoMembers := types.MustConfig(2, "n1", "n2")
	cases := []struct {
		name        string
		last        []types.Command // slot 5, a batch when longer than one
		wantMembers []types.NodeID
		wantCount   uint64 // counter after slot 5
		boundWedges int64
	}{
		{name: "batch", last: []types.Command{add(5), add(6), add(7)}, wantMembers: []types.NodeID{"n1"}, wantCount: 7, boundWedges: 1},
		{name: "reconfiguration-mid-batch", last: []types.Command{add(5), types.ReconfigCommand(twoMembers), add(6)},
			wantMembers: twoMembers.Members, wantCount: 5},
		{name: "stale-reconfiguration", last: []types.Command{add(5), types.ReconfigCommand(types.MustConfig(7, "n2"))},
			wantMembers: []types.NodeID{"n1"}, wantCount: 5, boundWedges: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, f := scriptedNode(t, bound)
			eng := f.engine(t, 1)
			for s := 1; s < bound; s++ {
				eng.decs <- smr.Decision{Slot: types.Slot(s), Cmd: add(s)}
			}
			last := tc.last[0]
			if len(tc.last) > 1 {
				last = types.BatchCommand(tc.last)
			}
			eng.decs <- smr.Decision{Slot: bound, Cmd: last}
			eng.decs <- smr.Decision{Slot: bound + 1, Cmd: add(100)} // post-wedge
			waitCurrent(t, n, 2)

			if got := n.CurrentConfig(); !got.Equal(types.Config{ID: 2, Members: tc.wantMembers}) {
				t.Fatalf("successor %v, want configuration 2 of %v", got, tc.wantMembers)
			}
			recs := n.ChainRecords()
			if len(recs) != 1 || recs[0].From != 1 || recs[0].WedgeSlot != bound {
				t.Fatalf("chain %+v, want one record wedging configuration 1 at slot %d", recs, bound)
			}
			if got := counterValue(t, n.Machine().ApplyRead(statemachine.EncodeCounterGet())); got != tc.wantCount {
				t.Fatalf("counter %d after the wedge, want %d", got, tc.wantCount)
			}
			st := n.Stats()
			if st.CheckpointsPublished != tc.boundWedges || st.Wedges != 1 || st.InvariantViolations != 0 {
				t.Fatalf("bound wedges %d (want %d), wedges %d, violations %d", st.CheckpointsPublished, tc.boundWedges, st.Wedges, st.InvariantViolations)
			}

			// The successor's log starts at slot 1 over the wedge-time state.
			f.engine(t, 2).decs <- smr.Decision{Slot: 1, Cmd: add(101)}
			deadline := time.Now().Add(5 * time.Second)
			for id, at := n.AppliedSlot(); id != 2 || at != 1; id, at = n.AppliedSlot() {
				if time.Now().After(deadline) {
					t.Fatalf("applied (cfg %d, slot %d), want (cfg 2, slot 1)", id, at)
				}
				time.Sleep(time.Millisecond)
			}
			if got := counterValue(t, n.Machine().ApplyRead(statemachine.EncodeCounterGet())); got != tc.wantCount+1 {
				t.Fatalf("counter %d in the successor, want %d", got, tc.wantCount+1)
			}
		})
	}
}

// The bound repeats: a configuration that reaches it hands over to one that
// reaches it in turn, each a slot-1 log.
func TestLogBoundRepeats(t *testing.T) {
	const bound, k = 3, 4
	n, f := scriptedNode(t, bound)
	seq := 0
	for id := uint64(1); id <= k; id++ {
		eng := f.engine(t, id)
		for s := 1; s <= bound; s++ {
			seq++
			eng.decs <- smr.Decision{Slot: types.Slot(s), Cmd: add(seq)}
		}
		waitCurrent(t, n, types.ConfigID(id+1))
	}
	if got := counterValue(t, n.Machine().ApplyRead(statemachine.EncodeCounterGet())); got != uint64(seq) {
		t.Fatalf("counter %d, want %d", got, seq)
	}
	if got := n.Stats().CheckpointsPublished; got != k {
		t.Fatalf("%d bound wedges, want %d", got, k)
	}
	for i, rec := range n.ChainRecords() {
		if rec.WedgeSlot != bound || !rec.To.Equal(types.MustConfig(rec.From+1, "n1")) {
			t.Fatalf("record %d: %s", i, fmt.Sprint(rec))
		}
	}
}

// A user reconfiguration whose chain position a log-bound wedge takes —
// the winner has its predecessor's members — is proposed again at the next
// position and returns its own members; one that loses to another
// membership still returns ErrConflict with the winner.
func TestReconfigureRetriesPastBoundWedge(t *testing.T) {
	const bound = 4
	want := types.MustConfig(3, "n1", "n2")
	for _, tc := range []struct {
		name   string
		winner types.Config // decided at configuration 2's slot 1
		err    error
	}{
		{name: "own-members", winner: want},
		{name: "other-members", winner: types.MustConfig(3, "n1", "n3"), err: ErrConflict},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, f := scriptedNode(t, bound)
			type result struct {
				cfg types.Config
				err error
			}
			done := make(chan result, 1)
			go func() {
				ctx, cancel := contextWithTimeout(10 * time.Second)
				defer cancel()
				cfg, err := n.Reconfigure(ctx, want.Members)
				done <- result{cfg, err}
			}()
			eng := f.engine(t, 1)
			for s := 1; s <= bound; s++ {
				eng.decs <- smr.Decision{Slot: types.Slot(s), Cmd: add(s)}
			}
			waitCurrent(t, n, 2)
			select {
			case r := <-done:
				t.Fatalf("Reconfigure returned %v, %v when the log bound took its position", r.cfg, r.err)
			case <-time.After(50 * time.Millisecond):
			}
			f.engine(t, 2).decs <- smr.Decision{Slot: 1, Cmd: types.ReconfigCommand(tc.winner)}
			r := <-done
			if !errors.Is(r.err, tc.err) || !r.cfg.Equal(tc.winner) {
				t.Fatalf("Reconfigure = %v, %v; want %v, %v", r.cfg, r.err, tc.winner, tc.err)
			}
		})
	}
}

// A read whose engine answers its index inside ReadIndex, on the loop itself,
// completes: the answer is posted to the mailbox and served at the loop's next
// drain, at once when the index is applied, or once the apply cursor reaches
// it; when the mailbox is full it is answered SubmitBusy at once.
func TestSynchronousReadIndexCompletesRead(t *testing.T) {
	n, f := scriptedNode(t, 100)
	e := f.engine(t, 1)
	e.decs <- smr.Decision{Slot: 1, Cmd: add(1)}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, applied := n.AppliedSlot(); applied == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slot 1 was never applied")
		}
	}
	read := func(seq uint64) <-chan []byte {
		out := make(chan []byte, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			reply, err := n.Submit(ctx, "r", seq, statemachine.EncodeCounterGet())
			if err != nil {
				t.Errorf("read #%d: %v", seq, err)
			}
			out <- reply
		}()
		return out
	}

	e.readIndex.Store(1)
	if got := counterValue(t, <-read(1)); got != 1 {
		t.Fatalf("read at index 1: counter %d, want 1", got)
	}
	e.readIndex.Store(2)
	parked := read(2)
	select {
	case reply := <-parked:
		t.Fatalf("read at index 2 answered %q before slot 2 was applied", reply)
	case <-time.After(50 * time.Millisecond):
	}
	e.decs <- smr.Decision{Slot: 2, Cmd: add(2)}
	if got := counterValue(t, <-parked); got != 2 {
		t.Fatalf("read at index 2: counter %d, want 2", got)
	}
	if st := n.Stats(); st.FastReads != 2 || st.ReadFallbacks != 0 {
		t.Fatalf("FastReads %d, ReadFallbacks %d; want 2 and 0", st.FastReads, st.ReadFallbacks)
	}

	// An answer that finds the mailbox full is not dropped: the read is shed
	// with SubmitBusy at once. The test holds n.mu, so the loop cannot drain,
	// while it posts work that fills the mailbox and then the read; the loop
	// runs the first and admits the second in one drain.
	n.mu.Lock()
	n.mailbox.TryPut(loopMsg{f: func() {
		for n.mailbox.TryPut(loopMsg{}) { // malformed commands: the loop drops them
		}
	}})
	busy := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, err := n.Submit(ctx, "r", 3, statemachine.EncodeCounterGet())
		busy <- err
	}()
	for n.mailbox.Len() < 2 {
		time.Sleep(time.Millisecond)
	}
	n.mu.Unlock()
	select {
	case err := <-busy:
		if !errors.Is(err, ErrBusy) {
			t.Fatalf("read whose answer found the mailbox full: %v, want ErrBusy", err)
		}
	case <-time.After(time.Second):
		t.Fatal("a read whose answer found the mailbox full went unanswered")
	}
	// The retry must not find the filler still queued: on a loaded host the
	// loop may not have drained it yet, and then the retry is busy too.
	for n.mailbox.Len() > 0 {
		time.Sleep(time.Millisecond)
	}
	if got := counterValue(t, <-read(3)); got != 2 {
		t.Fatalf("the retried read: counter %d, want 2", got)
	}
}
