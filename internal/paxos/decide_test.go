package paxos

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// Tests for decide by reference: the Decide frame and the dec/ record name
// (slot, ballot) and the command is taken from the acceptor's own accepted
// entry, so it crosses each link and each log once.

func kibCmd(seq uint64) types.Command {
	return types.Command{Kind: types.CmdApp, Client: "c", Seq: seq, Data: bytes.Repeat([]byte{byte(seq)}, 1024)}
}

func byRef(slot types.Slot, b types.Ballot) inboundMsg {
	return inboundMsg{from: b.Leader, kind: KindDecide, payload: encodeDecide(decideMsg{Slot: slot, ByRef: true, Ballot: b})}
}

// legacyDecide is the by-value layout written out by hand — slot, then the
// command — which is every Decide frame and dec/ record of earlier versions.
func legacyDecide(slot types.Slot, cmd types.Command) []byte {
	w := types.NewWriter(8 + cmd.EncodedSize())
	w.Uvarint(uint64(slot))
	cmd.Encode(w)
	return w.Bytes()
}

func TestDecideCodecForms(t *testing.T) {
	cmd := appCmd("c", 7)
	if got, want := encodeDecide(decideMsg{Slot: 300, Cmd: cmd}), legacyDecide(300, cmd); !bytes.Equal(got, want) {
		t.Fatalf("by-value decide %x differs from the legacy layout %x", got, want)
	}
	got, err := decodeDecide(legacyDecide(300, cmd))
	if err != nil || got.ByRef || got.Slot != 300 || !got.Cmd.Equal(cmd) {
		t.Fatalf("legacy decide decoded as %+v, %v", got, err)
	}

	b := types.Ballot{Round: 9, Leader: "n2"}
	ref := encodeDecide(decideMsg{Slot: 300, ByRef: true, Ballot: b, Cmd: kibCmd(1)})
	if len(ref) > 16 {
		t.Fatalf("by-reference decide is %d bytes: it must not carry the command", len(ref))
	}
	got, err = decodeDecide(ref)
	if err != nil || !got.ByRef || got.Slot != 300 || !got.Ballot.Equal(b) {
		t.Fatalf("by-reference decide decoded as %+v, %v", got, err)
	}
	for i := 0; i < len(ref); i++ {
		if _, err := decodeDecide(ref[:i]); err == nil {
			t.Fatalf("by-reference decide truncated at %d accepted", i)
		}
	}
}

func FuzzDecodeDecide(f *testing.F) {
	f.Add(legacyDecide(1, types.NoopCommand()))
	f.Add(legacyDecide(1<<40, appCmd("client", 12)))
	f.Add(encodeDecide(decideMsg{Slot: 1, ByRef: true, Ballot: types.Ballot{Round: 1, Leader: "n1"}}))
	f.Add(encodeDecide(decideMsg{Slot: 1 << 40, ByRef: true, Ballot: types.Ballot{Round: 1 << 33, Leader: "a-long-node-name"}}))
	f.Add([]byte{})
	f.Add([]byte{5, 0})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeDecide(data)
		if err != nil {
			return
		}
		again, err := decodeDecide(encodeDecide(m))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Slot != m.Slot || again.ByRef != m.ByRef || !again.Ballot.Equal(m.Ballot) || !again.Cmd.Equal(m.Cmd) {
			t.Fatalf("round trip changed: %+v -> %+v", m, again)
		}
	})
}

// A follower that never saw the Accept cannot resolve the reference: it must
// learn nothing, note the slot as decided, ask a peer for it, and deliver it
// from the by-value answer.
func TestDecideByRefWithoutAcceptFetchesByValue(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	t.Cleanup(net.Close)
	cfg := types.MustConfig(1, "n1", "n2", "n3")
	st := storage.NewMem()
	r, err := New(cfg, "n1", net.Endpoint("n1"), st, 1, fastOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var asked []catchupReqMsg
	for _, peer := range cfg.Others("n1") {
		net.Endpoint(peer).Handle(1, func(_ types.NodeID, _ uint64, kind uint8, payload []byte) {
			if req, err := decodeCatchupReq(payload); kind == KindCatchupReq && err == nil {
				mu.Lock()
				asked = append(asked, req)
				mu.Unlock()
			}
		})
	}

	b := types.Ballot{Round: 1, Leader: "n2"}
	r.handleMessage(byRef(1, b))
	if len(r.decided) != 0 || r.deliverNext != 1 {
		t.Fatalf("learned from a reference with no accepted entry: decided=%d deliverNext=%d", len(r.decided), r.deliverNext)
	}
	if r.maxDecidedSeen != 1 {
		t.Fatalf("maxDecidedSeen = %d, want 1", r.maxDecidedSeen)
	}

	burst(r, r.tick)
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(asked)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no catch-up request left the follower")
		}
		time.Sleep(time.Millisecond)
	}
	if asked[0].From != 1 || asked[0].To != 1 {
		t.Fatalf("catch-up asked for [%d,%d], want [1,1]", asked[0].From, asked[0].To)
	}

	cmd := kibCmd(1)
	r.handleMessage(inboundMsg{from: "n2", kind: KindCatchupResp, payload: encodeCatchupResp(catchupRespMsg{
		Entries: []decideMsg{{Slot: 1, Cmd: cmd}}, Frontier: 1,
	})})
	if r.deliverNext != 2 || !r.decided[1].Equal(cmd) {
		t.Fatalf("slot 1 not delivered after the by-value answer (deliverNext=%d)", r.deliverNext)
	}
	// Nothing under acc/ backs this decision, so the record holds the command.
	raw, ok, _ := st.Get(storage.SlotKey("pxs/1/dec/", 1))
	if d, err := decodeDecide(raw); !ok || err != nil || d.ByRef || !d.Cmd.Equal(cmd) {
		t.Fatalf("dec/ record after a by-value learn: %+v ok=%v err=%v", d, ok, err)
	}
	if v := r.Stats().InvariantViolations; v != 0 {
		t.Fatalf("%d invariant violations", v)
	}
}

// A reference resolves only through an accepted entry at exactly its ballot:
// an acceptor that has since accepted a newer ballot may hold a different
// command for the slot.
func TestDecideByRefNeedsMatchingBallot(t *testing.T) {
	r, st := bareReplica(t)
	old := types.Ballot{Round: 1, Leader: "n2"}
	newer := types.Ballot{Round: 2, Leader: "n3"}
	cmd := kibCmd(2)
	if am := r.acceptAccept(proposal(acceptedEntry{Ballot: newer, Slot: 1, Cmd: cmd})); !am.OK {
		t.Fatal("accept rejected")
	}

	r.handleMessage(byRef(1, old))
	if len(r.decided) != 0 || r.deliverNext != 1 {
		t.Fatal("learned by reference across a ballot mismatch")
	}
	if r.maxDecidedSeen != 1 {
		t.Fatalf("maxDecidedSeen = %d, want 1", r.maxDecidedSeen)
	}
	if _, ok, _ := st.Get(storage.SlotKey("pxs/1/dec/", 1)); ok {
		t.Fatal("dec/ record written for a decision that was not learned")
	}

	r.handleMessage(byRef(1, newer))
	if r.deliverNext != 2 || !r.decided[1].Equal(cmd) {
		t.Fatal("matching reference did not deliver the accepted command")
	}
	raw, _, _ := st.Get(storage.SlotKey("pxs/1/dec/", 1))
	if d, err := decodeDecide(raw); err != nil || !d.ByRef || !d.Ballot.Equal(newer) {
		t.Fatalf("dec/ record is %+v (%v), want a marker at %v", d, err, newer)
	}
	if len(raw) > 16 {
		t.Fatalf("marker is %d bytes", len(raw))
	}
}

// After a crash the decided prefix comes back from markers resolved through
// the accepted records, on the leader and on a follower alike.
func TestWALRestartRecoversMarkerPrefix(t *testing.T) {
	dirs := map[types.NodeID]string{}
	open := func(id types.NodeID) *storage.WALStore {
		w, err := storage.OpenWALStore(dirs[id], storage.WALStoreOptions{SyncWrites: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = w.Close() })
		return w
	}
	tc := newTestClusterOn(t, 3, transport.Options{}, func(id types.NodeID) storage.Store {
		dirs[id] = t.TempDir()
		return open(id)
	}, nil)
	lead := tc.waitForLeader(5 * time.Second)
	const total = 40
	for i := 1; i <= total; i++ {
		tc.proposeVia(lead, kibCmd(uint64(i)))
	}
	tc.waitUntil(func() bool {
		for _, id := range tc.cfg.Members {
			if len(tc.appDelivered(id)) < total {
				return false
			}
		}
		return true
	}, "all decisions everywhere", 10*time.Second)
	tc.checkAgreement()

	for _, id := range []types.NodeID{lead, tc.cfg.Others(lead)[0]} {
		// The crash: the replica stops and its store is closed; what the WAL
		// holds is all that recovery sees.
		slots := len(tc.deliveredAt(id))
		tc.reps[id].Stop()
		_ = tc.stores[id].(*storage.WALStore).Close()
		w := open(id)

		decs, err := w.Scan("pxs/1/dec/")
		if err != nil || len(decs) != slots {
			t.Fatalf("%s: %d dec/ records (%v), want %d", id, len(decs), err, slots)
		}
		for _, kv := range decs {
			if d, err := decodeDecide(kv.Value); err != nil || !d.ByRef || len(kv.Value) > 16 {
				t.Fatalf("%s: %s is not a marker: %d bytes, %+v %v", id, kv.Key, len(kv.Value), d, err)
			}
		}
		r, err := New(tc.cfg, id, tc.net.Endpoint(id), w, 1, fastOpts(0))
		if err != nil {
			t.Fatalf("%s: recovery: %v", id, err)
		}
		if len(r.decided) != slots || r.Stats().InvariantViolations != 0 {
			t.Fatalf("%s: recovered %d decided slots with %d violations, want %d and 0",
				id, len(r.decided), r.Stats().InvariantViolations, slots)
		}
		for _, d := range tc.deliveredAt(id) {
			if !r.decided[d.Slot].Equal(d.Cmd) {
				t.Fatalf("%s: slot %d recovered a different command than was delivered", id, d.Slot)
			}
		}
	}
}

// A store written before decide by reference holds by-value dec/ records; it
// must recover unchanged, also when newer markers sit beside the old records.
// A marker the accepted record does not back is a damaged store: the slot
// comes back undecided-but-known and is counted.
func TestRecoverLegacyAndMarkerRecords(t *testing.T) {
	dir := t.TempDir()
	w, err := storage.OpenWALStore(dir, storage.WALStoreOptions{SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	b := types.Ballot{Round: 3, Leader: "n2"}
	acc := func(slot types.Slot, ballot types.Ballot, cmd types.Command) {
		wr := types.NewWriter(24 + cmd.EncodedSize())
		wr.Uvarint(uint64(slot))
		wr.Ballot(ballot)
		cmd.Encode(wr)
		if err := w.Set(storage.SlotKey("pxs/1/acc/", uint64(slot)), wr.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	dec := func(slot types.Slot, value []byte) {
		if err := w.Set(storage.SlotKey("pxs/1/dec/", uint64(slot)), value); err != nil {
			t.Fatal(err)
		}
	}
	// Slots 1-3: what the previous version wrote, acc/ and by-value dec/.
	for slot := types.Slot(1); slot <= 3; slot++ {
		acc(slot, b, kibCmd(uint64(slot)))
		dec(slot, legacyDecide(slot, kibCmd(uint64(slot))))
	}
	// Slot 4: learned through catch-up, no accepted record at all.
	dec(4, legacyDecide(4, kibCmd(4)))
	// Slot 5: a marker backed by its accepted record.
	acc(5, b, kibCmd(5))
	dec(5, encodeDecide(decideMsg{Slot: 5, ByRef: true, Ballot: b}))
	// Slot 6: a marker naming a ballot the accepted record does not have.
	acc(6, types.Ballot{Round: 4, Leader: "n3"}, kibCmd(66))
	dec(6, encodeDecide(decideMsg{Slot: 6, ByRef: true, Ballot: b}))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w, err = storage.OpenWALStore(dir, storage.WALStoreOptions{SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	r, err := New(types.MustConfig(1, "n1", "n2", "n3"), "n1", net.Endpoint("n1"), w, 1, fastOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	for slot := types.Slot(1); slot <= 5; slot++ {
		if cmd, ok := r.decided[slot]; !ok || !cmd.Equal(kibCmd(uint64(slot))) {
			t.Fatalf("slot %d not recovered (present=%v)", slot, ok)
		}
	}
	if _, ok := r.decided[6]; ok {
		t.Fatal("slot 6 recovered through a marker its accepted record does not back")
	}
	if r.maxDecidedSeen != 6 {
		t.Fatalf("maxDecidedSeen = %d, want 6 so that catch-up refetches slot 6", r.maxDecidedSeen)
	}
	if v := r.Stats().InvariantViolations; v != 1 {
		t.Fatalf("%d invariant violations, want 1 for the unbacked marker", v)
	}
}

// The Decide traffic per slot must not depend on the payload size: with 1 KiB
// commands the whole Decide broadcast of a slot stays under 64 bytes, while
// the Accepts carry the command once per follower.
func TestDecideWireBytesIndependentOfPayload(t *testing.T) {
	tc := newTestCluster(t, 3, transport.Options{})
	lead := tc.waitForLeader(2 * time.Second)
	tc.proposeVia(lead, appCmd("warm", 1))
	tc.waitUntil(func() bool {
		for _, id := range tc.cfg.Members {
			if len(tc.appDelivered(id)) < 1 {
				return false
			}
		}
		return true
	}, "first decision everywhere", 5*time.Second)

	before := tc.net.Stats()
	const slots = 50
	for i := 1; i <= slots; i++ {
		tc.proposeVia(lead, kibCmd(uint64(i)))
	}
	tc.waitUntil(func() bool {
		for _, id := range tc.cfg.Members {
			if len(tc.appDelivered(id)) < 1+slots {
				return false
			}
		}
		return true
	}, "all decisions everywhere", 10*time.Second)
	after := tc.net.Stats()
	tc.checkAgreement()

	decide := after.PerKind[KindDecide].Bytes - before.PerKind[KindDecide].Bytes
	accept := after.PerKind[KindAccept].Bytes - before.PerKind[KindAccept].Bytes
	if perSlot := decide / slots; perSlot >= 64 {
		t.Fatalf("Decide traffic is %d B/slot with 1 KiB commands, want < 64", perSlot)
	}
	if accept < 2*1024*slots {
		t.Fatalf("Accept traffic is %d B for %d slots: the commands did not cross the wire", accept, slots)
	}
}
