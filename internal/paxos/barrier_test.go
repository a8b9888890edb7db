package paxos

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// The barrier rule (endBurst), observed from outside the replica: one log,
// in the order things happened, of what its store was asked to do, what it
// sent its peers and what its application saw.

type barrierEvent struct {
	what   string       // "stage", "sync-enter", "sync-done", "sync-fail", "sent", "frame", "decision"
	key    string       // stage: the store key
	kind   uint8        // frame: the frame kind
	slot   types.Slot   // frame, decision: the slot, where there is one
	ballot types.Ballot // frame: the ballot, where there is one
}

type barrierLog struct {
	mu     sync.Mutex
	cond   *sync.Cond
	events []barrierEvent
	// inflight holds, per peer, the positions of frames sent to it and not
	// yet delivered, oldest first.
	inflight map[types.NodeID][]int
}

func newBarrierLog() *barrierLog {
	l := &barrierLog{inflight: make(map[types.NodeID][]int)}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// sent logs a frame to peer at the moment the replica transmits it, as "sent":
// its kind is not known yet.
func (l *barrierLog) sent(peer types.NodeID) {
	l.mu.Lock()
	l.inflight[peer] = append(l.inflight[peer], len(l.events))
	l.events = append(l.events, barrierEvent{what: "sent"})
	l.mu.Unlock()
}

// delivered fills in the "sent" event of the frame peer has just received,
// which becomes e, a "frame", at the position of its send. The replica is
// each peer's only sender and the fabric keeps a link in order, so the k-th
// frame a peer receives is the k-th one sent to it. It reports false when
// no send is waiting for the frame.
func (l *barrierLog) delivered(peer types.NodeID, e barrierEvent) bool {
	l.mu.Lock()
	q := l.inflight[peer]
	if len(q) == 0 {
		l.mu.Unlock()
		return false
	}
	l.events[q[0]] = e
	l.inflight[peer] = q[1:]
	l.mu.Unlock()
	l.cond.Broadcast()
	return true
}

func (l *barrierLog) add(e barrierEvent) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
	l.cond.Broadcast()
}

func (l *barrierLog) snapshot() []barrierEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]barrierEvent(nil), l.events...)
}

// await blocks until an event at or after position from satisfies match and
// returns its position.
func (l *barrierLog) await(t *testing.T, what string, from int, match func(barrierEvent) bool) int {
	t.Helper()
	timer := time.AfterFunc(5*time.Second, l.cond.Broadcast)
	defer timer.Stop()
	deadline := time.Now().Add(5 * time.Second)
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		for i := from; i < len(l.events); i++ {
			if match(l.events[i]) {
				return i
			}
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		l.cond.Wait()
	}
}

func (l *barrierLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// none reports the first event at or after from that satisfies match, after
// giving a wrongly early one grace to show up.
func (l *barrierLog) none(t *testing.T, what string, from int, match func(barrierEvent) bool) {
	t.Helper()
	time.Sleep(20 * time.Millisecond)
	for i, e := range l.snapshot() {
		if i >= from && match(e) {
			t.Fatalf("%s: event %d %+v", what, i, e)
		}
	}
}

func isFrame(kind uint8) func(barrierEvent) bool {
	return func(e barrierEvent) bool { return e.what == "frame" && e.kind == kind }
}

func isDecision(slot types.Slot) func(barrierEvent) bool {
	return func(e barrierEvent) bool { return e.what == "decision" && e.slot == slot }
}

func isWhat(what string) func(barrierEvent) bool {
	return func(e barrierEvent) bool { return e.what == what }
}

// recStore logs what the replica stages and when its barriers start and end;
// a barrier can be held shut, or made to fail.
type recStore struct {
	*storage.MemStore
	log *barrierLog

	mu     sync.Mutex
	staged int           // writes staged since the last barrier
	gate   chan struct{} // non-nil: a barrier with writes behind it waits for it to close
	fail   bool
}

var errDiskGone = errors.New("injected fsync failure")

func (s *recStore) stage(key string) {
	s.mu.Lock()
	s.staged++
	s.mu.Unlock()
	s.log.add(barrierEvent{what: "stage", key: key})
}

func (s *recStore) SetBuffered(key string, value []byte) error {
	s.stage(key)
	return s.MemStore.SetBuffered(key, value)
}

func (s *recStore) DeleteBuffered(key string) error {
	s.stage(key)
	return s.MemStore.DeleteBuffered(key)
}

func (s *recStore) Sync() error {
	s.mu.Lock()
	gate, fail := s.gate, s.fail
	if s.staged == 0 {
		gate = nil // nothing behind it (the loop's opening barrier on a fresh store)
	}
	s.staged = 0
	s.mu.Unlock()
	s.log.add(barrierEvent{what: "sync-enter"})
	if gate != nil {
		<-gate
	}
	if fail {
		s.log.add(barrierEvent{what: "sync-fail"})
		return errDiskGone
	}
	err := s.MemStore.Sync()
	s.log.add(barrierEvent{what: "sync-done"})
	return err
}

// hold shuts the barrier until open is called.
func (s *recStore) hold() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gate == nil {
		s.gate = make(chan struct{})
	}
}

// open lets a held barrier go; a barrier that is not held stays as it is.
func (s *recStore) open() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gate != nil {
		close(s.gate)
		s.gate = nil
	}
}

func (s *recStore) setFail(fail bool) {
	s.mu.Lock()
	s.fail = fail
	s.mu.Unlock()
}

// barrierRig is one real replica, n1, whose peers are the test itself.
type barrierRig struct {
	t   *testing.T
	net *transport.Network
	log *barrierLog
	st  *recStore
	r   *Replica
}

func newBarrierRig(t *testing.T, members ...types.NodeID) *barrierRig {
	t.Helper()
	cfg := types.MustConfig(1, members...)
	rig := &barrierRig{t: t, log: newBarrierLog()}
	// A frame is logged when the replica sends it, not when the fabric
	// delivers it: the fabric calls LinkLatency inside the sender's Send.
	rig.net = transport.NewNetwork(transport.Options{LinkLatency: func(from, to types.NodeID) time.Duration {
		if from == members[0] {
			rig.log.sent(to)
		}
		return 0
	}})
	rig.st = &recStore{MemStore: storage.NewMem(), log: rig.log}
	for _, id := range members[1:] {
		rig.net.Endpoint(id).Handle(uint64(cfg.ID), func(_ types.NodeID, _ uint64, kind uint8, payload []byte) {
			e := barrierEvent{what: "frame", kind: kind}
			switch kind {
			case KindPrepare:
				if m, err := decodePrepare(payload); err == nil {
					e.ballot = m.Ballot
				}
			case KindPromise:
				if m, err := decodePromise(payload); err == nil {
					e.ballot = m.Ballot
				}
			case KindAccept:
				if m, err := decodeAccept(payload); err == nil {
					e.slot, e.ballot = m.Slot, m.Ballot
				}
			case KindAccepted:
				if m, err := decodeAccepted(payload); err == nil {
					e.slot, e.ballot = m.Slot, m.Ballot
				}
			case KindDecide:
				if m, err := decodeDecide(payload); err == nil {
					e.slot, e.ballot = m.Slot, m.Ballot
				}
			}
			if !rig.log.delivered(id, e) {
				t.Errorf("%s received %+v, which was never sent", id, e)
			}
		})
	}
	r, err := New(cfg, members[0], rig.net.Endpoint(members[0]), rig.st, uint64(cfg.ID), fastOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	rig.r = r
	done := make(chan struct{})
	t.Cleanup(func() {
		rig.st.open() // whatever a failed test left shut
		r.Stop()
		<-done
		rig.net.Close()
	})
	go func() {
		defer close(done)
		for d := range r.Decisions() {
			rig.log.add(barrierEvent{what: "decision", slot: d.Slot})
		}
	}()
	return rig
}

// awaitLeader waits until one of reps leads.
func awaitLeader(t *testing.T, reps ...*Replica) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		for _, r := range reps {
			if _, am := r.Leader(); am {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no leader")
		}
	}
}

// from sends the replica a frame as peer id.
func (rig *barrierRig) from(id types.NodeID, kind uint8, payload []byte) {
	rig.t.Helper()
	if err := rig.net.Endpoint(id).Send(rig.r.self, rig.r.stream, kind, payload); err != nil {
		rig.t.Fatal(err)
	}
}

func (rig *barrierRig) propose(cmd types.Command) {
	rig.t.Helper()
	if err := rig.r.Propose(cmd); err != nil {
		rig.t.Fatal(err)
	}
}

// checkOrder is the rule over the whole log. A frame that asserts a record —
// Promise: promised; Accepted and Decide: acc/<slot> — and a decision come
// after a completed barrier that followed the staging of that record. The
// first Prepare of a ballot and the first Accept of a slot come before the
// barrier of the turn that staged the proposer's own promise or vote.
func (rig *barrierRig) checkOrder() {
	rig.t.Helper()
	events := rig.log.snapshot()
	// covered reports whether a barrier completed between the last staging of
	// key before position i, and i.
	covered := func(i int, key string) (staged, ok bool) {
		for j := i - 1; j >= 0; j-- {
			switch e := events[j]; {
			case e.what == "sync-done":
				ok = true
			case e.what == "stage" && e.key == key:
				return true, ok
			}
		}
		return false, ok
	}
	acc := func(slot types.Slot) string { return storage.SlotKey(rig.r.prefix+"acc/", uint64(slot)) }
	firstPrepare := make(map[types.Ballot]bool)
	firstAccept := make(map[types.Slot]bool)
	for i, e := range events {
		var key string
		waits := true
		switch {
		case e.what == "decision":
			key = acc(e.slot)
		case e.what != "frame":
			continue
		case e.kind == KindPromise:
			key = rig.r.prefix + "promised"
		case e.kind == KindAccepted || e.kind == KindDecide:
			key = acc(e.slot)
		case e.kind == KindPrepare && !firstPrepare[e.ballot]:
			firstPrepare[e.ballot] = true
			key, waits = rig.r.prefix+"promised", false
		case e.kind == KindAccept && !firstAccept[e.slot]:
			firstAccept[e.slot] = true
			key, waits = acc(e.slot), false
		default:
			continue
		}
		staged, ok := covered(i, key)
		if !staged {
			rig.t.Errorf("event %d %+v: %s was never staged before it", i, e, key)
		} else if waits && !ok {
			rig.t.Errorf("event %d %+v left before a barrier covered %s", i, e, key)
		} else if !waits && ok {
			rig.t.Errorf("event %d %+v waited for the barrier covering %s", i, e, key)
		}
	}
	if rig.t.Failed() {
		var b strings.Builder
		for i, e := range events {
			fmt.Fprintf(&b, "\n%4d %+v", i, e)
		}
		rig.t.Log(b.String())
	}
}

// TestBarrierReleaseOrder drives one replica of three through both roles with
// its barrier held shut at every step: what only asks — Prepare, Accept —
// reaches its peers while the proposer's own Sync is still running, and
// whatever asserts staged state — Promise, Accepted, Decide, a decision —
// stays inside until the Sync covering that state has returned.
func TestBarrierReleaseOrder(t *testing.T) {
	rig := newBarrierRig(t, "n1", "n2", "n3")
	log, st, r := rig.log, rig.st, rig.r

	// Candidate: the Prepare is out while the own promise is still being synced.
	st.hold()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	at := log.await(t, "a Prepare while the candidate's barrier is shut", 0, isFrame(KindPrepare))
	ballot := log.snapshot()[at].ballot
	if ballot.Leader != "n1" {
		t.Fatalf("prepare for ballot %v", ballot)
	}
	st.open()
	rig.from("n2", KindPromise, encodePromise(promiseMsg{Ballot: ballot, OK: true, Promised: ballot}))
	awaitLeader(t, r)

	// Leader: the Accept is out while the own vote is still being synced, and
	// nothing is decided on the strength of it.
	st.hold()
	mark := log.len()
	rig.propose(appCmd("c", 1))
	log.await(t, "an Accept while the leader's barrier is shut", mark, isFrame(KindAccept))
	log.none(t, "Decide sent before the leader's own vote was stable", mark, isFrame(KindDecide))
	log.none(t, "decision delivered before the leader's own vote was stable", mark, isDecision(1))
	st.open()
	rig.from("n2", KindAccepted, encodeAccepted(acceptedMsg{Ballot: ballot, Slot: 1, OK: true, Promised: ballot}))
	log.await(t, "the Decide for slot 1", mark, isFrame(KindDecide))
	log.await(t, "the decision of slot 1", mark, isDecision(1))

	// Acceptor: a promise and a vote stay inside until their barrier is over.
	higher := types.Ballot{Round: ballot.Round + 1, Leader: "n3"}
	st.hold()
	mark = log.len()
	rig.from("n3", KindPrepare, encodePrepare(prepareMsg{Ballot: higher, From: 2}))
	log.await(t, "the barrier behind the promise", mark, isWhat("sync-enter"))
	log.none(t, "Promise sent before promised was stable", mark, isFrame(KindPromise))
	st.open()
	log.await(t, "the Promise", mark, isFrame(KindPromise))

	st.hold()
	mark = log.len()
	rig.from("n3", KindAccept, acceptFrame(acceptedEntry{Ballot: higher, Slot: 2, Cmd: appCmd("c", 2)}))
	log.await(t, "the barrier behind the vote", mark, isWhat("sync-enter"))
	log.none(t, "Accepted sent before the vote was stable", mark, isFrame(KindAccepted))
	st.open()
	log.await(t, "the Accepted", mark, isFrame(KindAccepted))

	// A decision by reference to that vote needs no barrier of its own: the
	// marker is staged and the decision delivered without a Sync.
	mark = log.len()
	rig.from("n3", KindDecide, encodeDecide(decideMsg{Slot: 2, ByRef: true, Ballot: higher}))
	at = log.await(t, "the decision of slot 2", mark, isDecision(2))
	for _, e := range log.snapshot()[mark:at] {
		if e.what == "sync-enter" {
			t.Fatalf("a dec/ marker made its turn dirty: %+v", log.snapshot()[mark:at])
		}
	}

	// A failing barrier releases nothing that waits — not in its own turn and
	// not in the clean turns that follow — and when the store recovers, the
	// decision that was held comes out.
	st.setFail(true)
	mark = log.len()
	top := types.Ballot{Round: higher.Round + 1, Leader: "n3"}
	rig.from("n3", KindPrepare, encodePrepare(prepareMsg{Ballot: top, From: 3}))
	rig.from("n3", KindAccept, acceptFrame(acceptedEntry{Ballot: top, Slot: 3, Cmd: appCmd("c", 3)}))
	rig.from("n3", KindDecide, encodeDecide(decideMsg{Slot: 3, ByRef: true, Ballot: top}))
	log.await(t, "the failing barrier", mark, isWhat("sync-fail"))
	time.Sleep(20 * time.Millisecond) // several clean turns (ticks) go by
	for _, match := range []func(barrierEvent) bool{isFrame(KindPromise), isFrame(KindAccepted), isFrame(KindDecide), isDecision(3)} {
		log.none(t, "released behind a failed barrier", mark, match)
	}
	st.setFail(false)
	log.await(t, "the held decision once a barrier succeeds", mark, isDecision(3))

	rig.checkOrder()
}

// TestBarrierSingleMember: with n = 1 the leader's own staged vote is the
// whole quorum, so the slot is decided in the turn that proposes it — and is
// still delivered only after that turn's Sync, or never if the Sync fails.
func TestBarrierSingleMember(t *testing.T) {
	rig := newBarrierRig(t, "n1")
	log, st, r := rig.log, rig.st, rig.r
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	awaitLeader(t, r)

	st.hold()
	mark := log.len()
	rig.propose(appCmd("c", 1))
	log.await(t, "the barrier behind the vote", mark, isWhat("sync-enter"))
	log.none(t, "decision delivered before its Sync", mark, isDecision(1))
	st.open()
	log.await(t, "the decision of slot 1", mark, isDecision(1))

	st.setFail(true)
	mark = log.len()
	rig.propose(appCmd("c", 2))
	log.await(t, "the failing barrier", mark, isWhat("sync-fail"))
	log.none(t, "decision delivered behind a failed Sync", mark, isDecision(2))
	st.setFail(false)
	log.await(t, "the held decision once a barrier succeeds", mark, isDecision(2))

	rig.checkOrder()
}
