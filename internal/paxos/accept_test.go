package paxos

import (
	"bytes"
	"encoding/hex"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// An accepted value has one encoding: on a three-replica run the bytes under
// acc/<slot> are the same on the leader and on both followers, and they are
// the payload of the Accept frame that carried the slot — a single command and
// a batch of five alike.
func TestAcceptFrameIsAccRecord(t *testing.T) {
	tc := newTestClusterOn(t, 3, transport.Options{}, func(types.NodeID) storage.Store { return storage.NewMem() }, batched)
	lead := tc.waitForLeader(5 * time.Second)

	// Tap every follower's stream: note each Accept payload by slot, then hand
	// the frame to the replica as its own handler would.
	var mu sync.Mutex
	frames := make(map[types.Slot][]byte)
	for _, id := range tc.cfg.Members {
		if id == lead {
			continue
		}
		r := tc.reps[id]
		tc.net.Endpoint(id).Handle(r.stream, func(from types.NodeID, _ uint64, kind uint8, payload []byte) {
			if kind == KindAccept {
				if e, err := decodeAccept(payload); err == nil {
					mu.Lock()
					if prev, ok := frames[e.Slot]; ok && !bytes.Equal(prev, payload) {
						t.Errorf("slot %d: two different Accept payloads", e.Slot)
					}
					frames[e.Slot] = payload
					mu.Unlock()
				}
			}
			r.receive(from, r.stream, kind, payload)
		})
	}

	tc.proposeVia(lead, appCmd("solo", 1))
	tc.waitUntil(func() bool { return len(appsOf(t, tc, lead)) >= 1 }, "the single command", 5*time.Second)
	release := holdLoop(t, tc.reps[lead])
	defer release()
	for seq := uint64(1); seq <= 5; seq++ {
		tc.proposeVia(lead, appCmd("clump", seq))
	}
	release()
	for _, id := range tc.cfg.Members {
		id := id
		tc.waitUntil(func() bool { return len(appsOf(t, tc, id)) >= 6 }, "six commands at "+string(id), 5*time.Second)
	}

	var sawSingle, sawBatch bool
	for _, d := range tc.deliveredAt(lead) {
		switch d.Cmd.Kind {
		case types.CmdApp:
			sawSingle = true
		case types.CmdBatch:
			subs, err := types.DecodeBatch(d.Cmd.Data)
			if err != nil {
				t.Fatal(err)
			}
			sawBatch = sawBatch || len(subs) == 5
		default:
			continue
		}
		mu.Lock()
		frame := frames[d.Slot]
		mu.Unlock()
		if frame == nil {
			t.Fatalf("slot %d: no Accept frame seen", d.Slot)
		}
		for _, id := range tc.cfg.Members {
			rec, ok, err := tc.stores[id].Get(storage.SlotKey("pxs/1/acc/", uint64(d.Slot)))
			if err != nil || !ok {
				t.Fatalf("%s: acc/ record of slot %d: ok=%v err=%v", id, d.Slot, ok, err)
			}
			if !bytes.Equal(rec, frame) {
				t.Errorf("%s slot %d: acc/ record\n  %x\nis not the Accept payload\n  %x", id, d.Slot, rec, frame)
			}
		}
	}
	if !sawSingle || !sawBatch {
		t.Fatalf("single command decided: %v, batch of five decided: %v", sawSingle, sawBatch)
	}
}

// parentAccRecord is acc/<7> as the commit before the shared encoding wrote
// it (ad3eb04, persistAccepted): ballot 3.n2, a batch of {c1#9 "put k v"} and
// {c2#300 ""}. The layout is durable and must not move.
const parentAccRecord = "0703026e320400001502010263310907707574206b207601026332ac0200"

func TestParentAccRecordRecovers(t *testing.T) {
	raw, err := hex.DecodeString(parentAccRecord)
	if err != nil {
		t.Fatal(err)
	}
	subs := []types.Command{
		{Kind: types.CmdApp, Client: "c1", Seq: 9, Data: []byte("put k v")},
		{Kind: types.CmdApp, Client: "c2", Seq: 300, Data: []byte{}},
	}
	ballot := types.Ballot{Round: 3, Leader: "n2"}
	if rec, _ := encodeAccept(7, ballot, subs); !bytes.Equal(rec, raw) {
		t.Fatalf("encodeAccept writes\n  %x\nthe parent wrote\n  %s", rec, parentAccRecord)
	}

	st := storage.NewMem()
	if err := st.Set(storage.SlotKey("pxs/1/acc/", 7), raw); err != nil {
		t.Fatal(err)
	}
	net := transport.NewNetwork(transport.Options{})
	t.Cleanup(net.Close)
	r, err := New(types.MustConfig(1, "n1", "n2", "n3"), "n1", net.Endpoint("n1"), st, 1, fastOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	e, ok := r.accepted[7]
	if !ok || e.Slot != 7 || !e.Ballot.Equal(ballot) || e.Cmd.Kind != types.CmdBatch {
		t.Fatalf("recovered %+v (present %v)", e, ok)
	}
	got, err := types.DecodeBatch(e.Cmd.Data)
	if err != nil || len(got) != len(subs) {
		t.Fatalf("recovered batch: %v %v", got, err)
	}
	for i := range subs {
		if !got[i].Equal(subs[i]) {
			t.Fatalf("member %d: recovered %v, want %v", i, got[i], subs[i])
		}
	}
}

// What is stored verbatim is checked verbatim: an Accept payload, or an acc/
// record, with anything after the one record is refused — by the decoder, by
// the acceptor (nothing stored, no vote) and by recovery.
func TestAcceptRejectsTrailingBytes(t *testing.T) {
	b := types.Ballot{Round: 1, Leader: "n2"}
	long := append(acceptFrame(acceptedEntry{Ballot: b, Slot: 1, Cmd: appCmd("c", 1)}), 0)
	if _, err := decodeAccept(long); err == nil {
		t.Fatal("decodeAccept took a payload with a trailing byte")
	}

	r, st := bareReplica(t)
	r.handleMessage(inboundMsg{from: "n2", kind: KindAccept, payload: long})
	if _, ok := r.accepted[1]; ok {
		t.Fatal("the acceptor voted for a payload with a trailing byte")
	}
	if kvs, _ := st.Scan(r.prefix + "acc/"); len(kvs) != 0 {
		t.Fatalf("stored %d acc/ records", len(kvs))
	}

	if err := st.Set(storage.SlotKey(r.prefix+"acc/", 1), long); err != nil {
		t.Fatal(err)
	}
	if _, err := New(r.cfg, "n1", r.ep, st, 1, fastOpts(0)); err == nil {
		t.Fatal("recovery took an acc/ record with a trailing byte")
	}
}
