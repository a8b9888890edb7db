package types

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBallotOrdering(t *testing.T) {
	cases := []struct {
		a, b Ballot
		less bool
	}{
		{Ballot{}, Ballot{Round: 1, Leader: "n1"}, true},
		{Ballot{Round: 1, Leader: "n1"}, Ballot{Round: 1, Leader: "n2"}, true},
		{Ballot{Round: 1, Leader: "n2"}, Ballot{Round: 2, Leader: "n1"}, true},
		{Ballot{Round: 2, Leader: "n1"}, Ballot{Round: 2, Leader: "n1"}, false},
		{Ballot{Round: 3, Leader: "n1"}, Ballot{Round: 2, Leader: "n9"}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("(%v).Less(%v) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
}

func TestBallotNextIsGreater(t *testing.T) {
	f := func(round uint64, leader, next string) bool {
		if round > 1<<62 { // avoid overflow edge in property
			round = round % (1 << 62)
		}
		b := Ballot{Round: round, Leader: NodeID(leader)}
		n := b.Next(NodeID(next))
		return b.Less(n) && n.Leader == NodeID(next)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBallotNextSameLeader(t *testing.T) {
	b := Ballot{Round: 4, Leader: "n2"}
	n := b.Next("n2")
	if !b.Less(n) {
		t.Fatalf("Next with same leader must still be greater: %v vs %v", b, n)
	}
	if n.Round != 5 {
		t.Fatalf("expected round bump, got %v", n)
	}
}

func TestBallotZero(t *testing.T) {
	var b Ballot
	if !b.IsZero() {
		t.Fatal("zero ballot should report IsZero")
	}
	if b.Less(b) {
		t.Fatal("ballot not less than itself")
	}
	if !b.Less(b.Next("a")) {
		t.Fatal("zero ballot must be minimal")
	}
}

func TestCommandRoundTrip(t *testing.T) {
	cmds := []Command{
		{Kind: CmdApp, Client: "c1", Seq: 1, Data: []byte("hello")},
		{Kind: CmdApp, Client: "c-long-name", Seq: 1 << 40, Data: make([]byte, 4096)},
		{Kind: CmdNoop},
		{Kind: CmdReconfig, Data: EncodeConfig(MustConfig(7, "n1", "n2", "n3"))},
		{Kind: CmdApp, Client: "c1", Seq: 2, Data: nil},
	}
	for _, c := range cmds {
		buf := EncodeCommand(c)
		if len(buf) != c.EncodedSize() {
			t.Errorf("EncodedSize mismatch for %v: got %d want %d", c, c.EncodedSize(), len(buf))
		}
		got, err := DecodeCommand(buf)
		if err != nil {
			t.Fatalf("decode %v: %v", c, err)
		}
		if !got.Equal(c) {
			t.Errorf("round trip mismatch: %v -> %v", c, got)
		}
	}
}

func TestCommandRoundTripProperty(t *testing.T) {
	f := func(kindSel uint8, client string, seq uint64, data []byte) bool {
		kind := CommandKind(kindSel%3 + 1)
		c := Command{Kind: kind, Client: NodeID(client), Seq: seq, Data: data}
		got, err := DecodeCommand(EncodeCommand(c))
		return err == nil && got.Equal(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeCommandRejectsBadKind(t *testing.T) {
	c := Command{Kind: CmdApp, Client: "c", Seq: 1, Data: []byte("x")}
	buf := EncodeCommand(c)
	buf[0] = 99
	if _, err := DecodeCommand(buf); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestDecodeCommandTruncated(t *testing.T) {
	buf := EncodeCommand(Command{Kind: CmdApp, Client: "c1", Seq: 9, Data: []byte("payload")})
	for i := 0; i < len(buf); i++ {
		if _, err := DecodeCommand(buf[:i]); err == nil {
			t.Fatalf("truncation at %d not detected", i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewConfig(0, []NodeID{"a"}); err == nil {
		t.Error("config ID 0 accepted")
	}
	if _, err := NewConfig(1, nil); err == nil {
		t.Error("empty member set accepted")
	}
	if _, err := NewConfig(1, []NodeID{"a", "a"}); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := NewConfig(1, []NodeID{"a", ""}); err == nil {
		t.Error("empty member accepted")
	}
	c, err := NewConfig(1, []NodeID{"b", "a", "c"})
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeID{"a", "b", "c"}
	if !reflect.DeepEqual(c.Members, want) {
		t.Errorf("members not sorted: %v", c.Members)
	}
}

func TestConfigQuorum(t *testing.T) {
	cases := []struct{ n, q int }{{1, 1}, {2, 2}, {3, 2}, {4, 3}, {5, 3}, {7, 4}, {9, 5}}
	for _, cse := range cases {
		members := make([]NodeID, cse.n)
		for i := range members {
			members[i] = NodeID(rune('a' + i))
		}
		c := MustConfig(1, members...)
		if got := c.Quorum(); got != cse.q {
			t.Errorf("n=%d quorum=%d want %d", cse.n, got, cse.q)
		}
	}
}

func TestConfigOthersAndMembership(t *testing.T) {
	c := MustConfig(2, "n1", "n2", "n3")
	if !c.IsMember("n2") || c.IsMember("n9") {
		t.Fatal("membership check wrong")
	}
	others := c.Others("n2")
	if !reflect.DeepEqual(others, []NodeID{"n1", "n3"}) {
		t.Fatalf("Others = %v", others)
	}
	// Others of a non-member returns everyone.
	if got := c.Others("zz"); len(got) != 3 {
		t.Fatalf("Others(non-member) = %v", got)
	}
}

func TestConfigRoundTrip(t *testing.T) {
	c := MustConfig(42, "n1", "n2", "n3", "n4", "n5")
	got, err := DecodeConfig(EncodeConfig(c))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(c) {
		t.Fatalf("round trip: %v -> %v", c, got)
	}
}

func TestConfigCloneIsDeep(t *testing.T) {
	c := MustConfig(1, "n1", "n2")
	d := c.Clone()
	d.Members[0] = "zz"
	if c.Members[0] != "n1" {
		t.Fatal("Clone shares member slice")
	}
}

func TestWriterReaderPrimitives(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(0)
	w.Uvarint(300)
	w.Uvarint(1 << 63)
	w.Bool(true)
	w.Bool(false)
	w.String("")
	w.String("héllo")
	w.BytesField([]byte{1, 2, 3})
	w.NodeIDs([]NodeID{"a", "bb"})
	w.Ballot(Ballot{Round: 7, Leader: "n3"})

	r := NewReader(w.Bytes())
	if v := r.Uvarint(); v != 0 {
		t.Errorf("uvarint 0: %d", v)
	}
	if v := r.Uvarint(); v != 300 {
		t.Errorf("uvarint 300: %d", v)
	}
	if v := r.Uvarint(); v != 1<<63 {
		t.Errorf("uvarint big: %d", v)
	}
	if !r.Bool() || r.Bool() {
		t.Error("bools wrong")
	}
	if s := r.String(); s != "" {
		t.Errorf("empty string: %q", s)
	}
	if s := r.String(); s != "héllo" {
		t.Errorf("string: %q", s)
	}
	if b := r.BytesField(); len(b) != 3 || b[2] != 3 {
		t.Errorf("bytes: %v", b)
	}
	ids := r.NodeIDs()
	if !reflect.DeepEqual(ids, []NodeID{"a", "bb"}) {
		t.Errorf("ids: %v", ids)
	}
	if b := r.Ballot(); !b.Equal(Ballot{Round: 7, Leader: "n3"}) {
		t.Errorf("ballot: %v", b)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining %d", r.Remaining())
	}
}

func TestReaderErrorSticky(t *testing.T) {
	r := NewReader([]byte{0xff}) // invalid uvarint (continuation with no next byte)
	_ = r.Uvarint()
	if r.Err() == nil {
		t.Fatal("expected error")
	}
	// Subsequent reads keep returning zero values, no panic.
	if v := r.Uvarint(); v != 0 {
		t.Fatal("sticky error should zero reads")
	}
	if s := r.String(); s != "" {
		t.Fatal("sticky error should zero reads")
	}
}

func TestReaderBytesFieldHugeLength(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(1 << 40) // absurd length with no body
	r := NewReader(w.Bytes())
	if b := r.BytesField(); b != nil || r.Err() == nil {
		t.Fatal("huge length must fail, not allocate")
	}
}

func TestUvarintLen(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		v := rng.Uint64() >> uint(rng.Intn(64))
		w := NewWriter(0)
		w.Uvarint(v)
		if got := UvarintLen(v); got != w.Len() {
			t.Fatalf("UvarintLen(%d) = %d, encoded %d", v, got, w.Len())
		}
	}
}

func TestSortAndCloneNodeIDs(t *testing.T) {
	in := []NodeID{"c", "a", "b"}
	got := SortNodeIDs(CloneNodeIDs(in))
	if !reflect.DeepEqual(got, []NodeID{"a", "b", "c"}) {
		t.Fatalf("sort: %v", got)
	}
	if !reflect.DeepEqual(in, []NodeID{"c", "a", "b"}) {
		t.Fatalf("input mutated: %v", in)
	}
	if CloneNodeIDs(nil) != nil {
		t.Fatal("clone of nil should be nil")
	}
}

func TestCommandKindString(t *testing.T) {
	if CmdApp.String() != "app" || CmdReconfig.String() != "reconfig" || CmdNoop.String() != "noop" {
		t.Fatal("kind strings")
	}
	if CommandKind(0).Valid() || CommandKind(9).Valid() {
		t.Fatal("invalid kinds accepted")
	}
}

func TestBatchCommandRoundTrip(t *testing.T) {
	cmds := []Command{
		{Kind: CmdApp, Client: "c1", Seq: 1, Data: []byte("a")},
		{Kind: CmdApp, Client: "c2", Seq: 9, Data: []byte("bb")},
		{Kind: CmdNoop},
	}
	b := BatchCommand(cmds)
	if b.Kind != CmdBatch {
		t.Fatalf("kind %v", b.Kind)
	}
	got, err := DecodeBatch(b.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("len %d", len(got))
	}
	for i := range cmds {
		if !got[i].Equal(cmds[i]) {
			t.Fatalf("entry %d: %v != %v", i, got[i], cmds[i])
		}
	}
	// The batch itself survives the generic command codec.
	b2, err := DecodeCommand(EncodeCommand(b))
	if err != nil || !b2.Equal(b) {
		t.Fatalf("%v %v", b2, err)
	}
}

func TestDecodeBatchRejectsCorruption(t *testing.T) {
	b := BatchCommand([]Command{{Kind: CmdApp, Client: "c", Seq: 1, Data: []byte("x")}})
	if _, err := DecodeBatch(b.Data[:len(b.Data)-1]); err == nil {
		t.Fatal("truncated batch accepted")
	}
	if _, err := DecodeBatch(append(append([]byte{}, b.Data...), 0)); err == nil {
		t.Fatal("padded batch accepted")
	}
	if _, err := DecodeBatch([]byte{0xff, 0xff}); err == nil {
		t.Fatal("absurd count accepted")
	}
	empty := BatchCommand(nil)
	if got, err := DecodeBatch(empty.Data); err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v %v", got, err)
	}
}

func TestConfigOthersUnionSelfProperty(t *testing.T) {
	f := func(rawMembers []string, selIdx uint8) bool {
		seen := map[string]bool{}
		var members []NodeID
		for _, m := range rawMembers {
			if m != "" && !seen[m] && len(m) < 64 {
				seen[m] = true
				members = append(members, NodeID(m))
			}
		}
		if len(members) == 0 {
			return true
		}
		c, err := NewConfig(1, members)
		if err != nil {
			return false
		}
		self := c.Members[int(selIdx)%c.N()]
		others := c.Others(self)
		if len(others) != c.N()-1 {
			return false
		}
		got := append(CloneNodeIDs(others), self)
		SortNodeIDs(got)
		for i := range got {
			if got[i] != c.Members[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSortNodeIDsIdempotent(t *testing.T) {
	f := func(raw []string) bool {
		ids := make([]NodeID, len(raw))
		for i, r := range raw {
			ids[i] = NodeID(r)
		}
		once := SortNodeIDs(CloneNodeIDs(ids))
		twice := SortNodeIDs(CloneNodeIDs(once))
		if len(once) != len(twice) {
			return false
		}
		for i := range once {
			if once[i] != twice[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigEncodedSizeReasonable(t *testing.T) {
	c := MustConfig(1000000, "node-with-a-long-name-1", "node-with-a-long-name-2")
	buf := EncodeConfig(c)
	if len(buf) > 4+2*(1+len("node-with-a-long-name-1"))+8 {
		t.Fatalf("config encoding bloated: %d bytes", len(buf))
	}
}

// The command path decodes in place: Data is a window of the input, not a
// copy, and its capacity stops where it ends, so an append reallocates instead
// of writing into the neighbouring command of a batch.
func TestDecodeCommandIsAView(t *testing.T) {
	batch := BatchCommand([]Command{
		{Kind: CmdApp, Client: "a", Seq: 1, Data: []byte("first")},
		{Kind: CmdApp, Client: "b", Seq: 2, Data: []byte("second")},
	})
	subs, err := DecodeBatch(batch.Data)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), batch.Data...)
	for _, c := range subs {
		if len(c.Data) == 0 || cap(c.Data) != len(c.Data) {
			t.Fatalf("%v: len %d cap %d, want cap == len", c, len(c.Data), cap(c.Data))
		}
		off := bytes.Index(batch.Data, c.Data)
		if off < 0 || &batch.Data[off] != &c.Data[0] {
			t.Fatalf("%v: Data does not share memory with the input", c)
		}
		_ = append(c.Data, "overflow"...)
	}
	if !bytes.Equal(batch.Data, before) {
		t.Fatal("an append to a decoded Data wrote into the input")
	}

	wire := EncodeCommand(Command{Kind: CmdApp, Client: "c", Seq: 3, Data: []byte("standalone")})
	c, err := DecodeCommand(wire)
	if err != nil {
		t.Fatal(err)
	}
	if &c.Data[0] != &wire[len(wire)-len(c.Data)] || cap(c.Data) != len(c.Data) {
		t.Fatal("DecodeCommand copied Data, or left it room to grow into")
	}

	// AppendBatch and AppendCommand hand back views of what they wrote.
	w := NewWriter(BatchEncodedSize(subs))
	packed := AppendBatch(w, subs)
	if !bytes.Equal(packed.Data, batch.Data) || &packed.Data[0] != &w.Bytes()[w.Len()-len(packed.Data)] || w.Len() != BatchEncodedSize(subs) {
		t.Fatal("AppendBatch: Data is not the tail of the writer, or the size is off")
	}
	w = NewWriter(c.EncodedSize())
	kept := AppendCommand(w, c)
	if !kept.Equal(c) || &kept.Data[0] != &w.Bytes()[w.Len()-len(kept.Data)] {
		t.Fatal("AppendCommand: Data is not a view of the writer")
	}
}

// TestSeedForStable pins the seed derivation: distinct nodes get
// distinct seeds, the same node always the same seed, and seeds are
// non-negative (rand.NewSource accepts any int64 but keep them canonical).
func TestSeedForStable(t *testing.T) {
	a1, a2, b := SeedFor("n1"), SeedFor("n1"), SeedFor("n2")
	if a1 != a2 {
		t.Fatalf("SeedFor not stable: %d vs %d", a1, a2)
	}
	if a1 == b {
		t.Fatalf("SeedFor collides for n1/n2: %d", a1)
	}
	if a1 < 0 || b < 0 {
		t.Fatalf("SeedFor produced negative seed: %d %d", a1, b)
	}
}
