package paxos

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func TestPrepareRoundTrip(t *testing.T) {
	m := prepareMsg{Ballot: types.Ballot{Round: 3, Leader: "n2"}, From: 17}
	got, err := decodePrepare(encodePrepare(m))
	if err != nil || !reflect.DeepEqual(got, m) {
		t.Fatalf("%v %v", got, err)
	}
}

func TestPromiseRoundTrip(t *testing.T) {
	m := promiseMsg{
		Ballot:   types.Ballot{Round: 3, Leader: "n2"},
		OK:       true,
		Promised: types.Ballot{Round: 3, Leader: "n2"},
		Accepted: []acceptedEntry{
			{Slot: 4, Ballot: types.Ballot{Round: 1, Leader: "n1"}, Cmd: types.Command{Kind: types.CmdApp, Client: "c", Seq: 9, Data: []byte("x")}},
			{Slot: 6, Ballot: types.Ballot{Round: 2, Leader: "n3"}, Cmd: types.NoopCommand()},
		},
		Decided: 3,
	}
	got, err := decodePromise(encodePromise(m))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Ballot.Equal(m.Ballot) || got.OK != m.OK || got.Decided != m.Decided || len(got.Accepted) != 2 {
		t.Fatalf("mismatch: %+v", got)
	}
	for i := range m.Accepted {
		if got.Accepted[i].Slot != m.Accepted[i].Slot ||
			!got.Accepted[i].Ballot.Equal(m.Accepted[i].Ballot) ||
			!got.Accepted[i].Cmd.Equal(m.Accepted[i].Cmd) {
			t.Fatalf("entry %d mismatch", i)
		}
	}
}

func TestPromiseRejectRoundTrip(t *testing.T) {
	m := promiseMsg{
		Ballot:   types.Ballot{Round: 1, Leader: "n1"},
		OK:       false,
		Promised: types.Ballot{Round: 5, Leader: "n9"},
	}
	got, err := decodePromise(encodePromise(m))
	if err != nil || got.OK || !got.Promised.Equal(m.Promised) {
		t.Fatalf("%+v %v", got, err)
	}
}

func TestAcceptAcceptedRoundTrip(t *testing.T) {
	a := acceptedEntry{
		Ballot: types.Ballot{Round: 2, Leader: "n1"},
		Slot:   12,
		Cmd:    types.Command{Kind: types.CmdApp, Client: "c7", Seq: 2, Data: []byte("op")},
	}
	gotA, err := decodeAccept(acceptFrame(a))
	if err != nil || !gotA.Cmd.Equal(a.Cmd) || gotA.Slot != a.Slot || !gotA.Ballot.Equal(a.Ballot) {
		t.Fatalf("accept: %+v %v", gotA, err)
	}
	b := acceptedMsg{Ballot: a.Ballot, Slot: 12, OK: true, Promised: a.Ballot}
	gotB, err := decodeAccepted(encodeAccepted(b))
	if err != nil || !reflect.DeepEqual(gotB, b) {
		t.Fatalf("accepted: %+v %v", gotB, err)
	}
}

func TestDecideHeartbeatRoundTrip(t *testing.T) {
	d := decideMsg{Slot: 99, Cmd: types.Command{Kind: types.CmdApp, Client: "c", Seq: 1, Data: []byte("z")}}
	gotD, err := decodeDecide(encodeDecide(d))
	if err != nil || gotD.Slot != 99 || !gotD.Cmd.Equal(d.Cmd) {
		t.Fatalf("decide: %+v %v", gotD, err)
	}
	h := heartbeatMsg{Ballot: types.Ballot{Round: 4, Leader: "n3"}, Decided: 88}
	gotH, err := decodeHeartbeat(encodeHeartbeat(h))
	if err != nil || !reflect.DeepEqual(gotH, h) {
		t.Fatalf("heartbeat: %+v %v", gotH, err)
	}
}

func TestCatchupRoundTrip(t *testing.T) {
	req := catchupReqMsg{From: 3, To: 10}
	gotReq, err := decodeCatchupReq(encodeCatchupReq(req))
	if err != nil || gotReq != req {
		t.Fatalf("req: %+v %v", gotReq, err)
	}
	resp := catchupRespMsg{Entries: []decideMsg{
		{Slot: 3, Cmd: types.NoopCommand()},
		{Slot: 4, Cmd: types.Command{Kind: types.CmdApp, Client: "c", Seq: 5, Data: []byte("v")}},
	}}
	gotResp, err := decodeCatchupResp(encodeCatchupResp(resp))
	if err != nil || len(gotResp.Entries) != 2 || !gotResp.Entries[1].Cmd.Equal(resp.Entries[1].Cmd) {
		t.Fatalf("resp: %+v %v", gotResp, err)
	}
}

func TestForwardRoundTrip(t *testing.T) {
	m := forwardMsg{Cmds: []types.Command{
		{Kind: types.CmdApp, Client: "c1", Seq: 3, Data: []byte("op")},
		{Kind: types.CmdApp, Client: "c2", Seq: 9, Data: []byte("other")},
		types.NoopCommand(),
	}}
	got, err := decodeForward(encodeForward(m))
	if err != nil || len(got.Cmds) != len(m.Cmds) {
		t.Fatalf("%+v %v", got, err)
	}
	for i := range m.Cmds {
		if !got.Cmds[i].Equal(m.Cmds[i]) {
			t.Fatalf("cmd %d: %+v", i, got.Cmds[i])
		}
	}
	// Empty queue round-trips too.
	got, err = decodeForward(encodeForward(forwardMsg{}))
	if err != nil || len(got.Cmds) != 0 {
		t.Fatalf("empty: %+v %v", got, err)
	}
}

func TestDecodersRejectTruncation(t *testing.T) {
	full := encodePromise(promiseMsg{
		Ballot: types.Ballot{Round: 1, Leader: "n1"}, OK: true,
		Promised: types.Ballot{Round: 1, Leader: "n1"},
		Accepted: []acceptedEntry{{Slot: 1, Ballot: types.Ballot{Round: 1, Leader: "n1"}, Cmd: types.NoopCommand()}},
		Decided:  0,
	})
	// Every field is required: every cut is rejected, the one just before
	// the truncation floor becomeLeader's noop-fill guard reads included.
	for i := 0; i < len(full); i++ {
		if _, err := decodePromise(full[:i]); err == nil {
			t.Fatalf("promise truncated at %d accepted", i)
		}
	}
	resp := encodeCatchupResp(catchupRespMsg{
		Entries:  []decideMsg{{Slot: 3, Cmd: types.NoopCommand()}},
		Frontier: 3, TruncatedBelow: 2,
	})
	for i := 0; i < len(resp); i++ {
		if _, err := decodeCatchupResp(resp[:i]); err == nil {
			t.Fatalf("catch-up response truncated at %d accepted", i)
		}
	}
	acc := acceptFrame(acceptedEntry{Ballot: types.Ballot{Round: 1, Leader: "n"}, Slot: 1, Cmd: types.NoopCommand()})
	for i := 0; i < len(acc); i++ {
		if _, err := decodeAccept(acc[:i]); err == nil {
			t.Fatalf("accept truncated at %d accepted", i)
		}
	}
}

func TestAcceptRoundTripProperty(t *testing.T) {
	f := func(round uint64, leader string, slot uint64, client string, seq uint64, data []byte) bool {
		m := acceptedEntry{
			Ballot: types.Ballot{Round: round, Leader: types.NodeID(leader)},
			Slot:   types.Slot(slot),
			Cmd:    types.Command{Kind: types.CmdApp, Client: types.NodeID(client), Seq: seq, Data: data},
		}
		got, err := decodeAccept(acceptFrame(m))
		return err == nil && got.Slot == m.Slot && got.Ballot.Equal(m.Ballot) && got.Cmd.Equal(m.Cmd)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
