package statemachine

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func openAccount(t *testing.T, m *Bank, name string, initial uint64) {
	t.Helper()
	if st := ReplyStatus(m.Apply(EncodeOpen(name, initial))); st != StatusOK {
		t.Fatalf("open %s: %v", name, st)
	}
}

func balance(t *testing.T, m *Bank, name string) uint64 {
	t.Helper()
	rep := m.Apply(EncodeBalance(name))
	if ReplyStatus(rep) != StatusOK {
		t.Fatalf("balance %s: %v", name, ReplyStatus(rep))
	}
	v, err := DecodeUvarintReply(ReplyPayload(rep))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestBankOpenDepositTransfer(t *testing.T) {
	m := NewBank()
	openAccount(t, m, "alice", 100)
	openAccount(t, m, "bob", 50)

	if st := ReplyStatus(m.Apply(EncodeOpen("alice", 1))); st != StatusConflict {
		t.Fatalf("duplicate open: %v", st)
	}
	if st := ReplyStatus(m.Apply(EncodeDeposit("ghost", 5))); st != StatusNotFound {
		t.Fatalf("deposit to ghost: %v", st)
	}
	if st := ReplyStatus(m.Apply(EncodeTransfer("alice", "bob", 30))); st != StatusOK {
		t.Fatalf("transfer: %v", st)
	}
	if b := balance(t, m, "alice"); b != 70 {
		t.Fatalf("alice = %d", b)
	}
	if b := balance(t, m, "bob"); b != 80 {
		t.Fatalf("bob = %d", b)
	}
	if st := ReplyStatus(m.Apply(EncodeTransfer("alice", "bob", 1000))); st != StatusConflict {
		t.Fatalf("overdraft: %v", st)
	}
	if st := ReplyStatus(m.Apply(EncodeTransfer("alice", "ghost", 1))); st != StatusNotFound {
		t.Fatalf("transfer to ghost: %v", st)
	}
}

func TestBankSelfTransferNoop(t *testing.T) {
	m := NewBank()
	openAccount(t, m, "a", 10)
	if st := ReplyStatus(m.Apply(EncodeTransfer("a", "a", 5))); st != StatusOK {
		t.Fatalf("self transfer: %v", st)
	}
	if b := balance(t, m, "a"); b != 10 {
		t.Fatalf("self transfer changed balance: %d", b)
	}
}

// TestBankConservationProperty is the core of invariant P4: arbitrary
// transfer sequences conserve the total.
func TestBankConservationProperty(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewBank()
		const nAcct = 5
		var want uint64
		for i := 0; i < nAcct; i++ {
			amt := uint64(rng.Intn(1000))
			m.Apply(EncodeOpen("a"+strconv.Itoa(i), amt))
			want += amt
		}
		for i := 0; i < int(nOps); i++ {
			from := "a" + strconv.Itoa(rng.Intn(nAcct))
			to := "a" + strconv.Itoa(rng.Intn(nAcct))
			m.Apply(EncodeTransfer(from, to, uint64(rng.Intn(500))))
		}
		return m.Total() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBankTotalOp(t *testing.T) {
	m := NewBank()
	openAccount(t, m, "a", 7)
	openAccount(t, m, "b", 8)
	total, err := DecodeUvarintReply(ReplyPayload(m.Apply(EncodeTotal())))
	if err != nil || total != 15 {
		t.Fatalf("total: %d %v", total, err)
	}
}

func TestBankSnapshotRoundTrip(t *testing.T) {
	m := NewBank()
	openAccount(t, m, "x", 1)
	openAccount(t, m, "y", 2)
	m.Apply(EncodeDeposit("x", 10))

	m2 := NewBank()
	if err := roundTrip(m, m2, nil); err != nil {
		t.Fatal(err)
	}
	if m2.Total() != m.Total() {
		t.Fatalf("totals differ: %d vs %d", m2.Total(), m.Total())
	}
}

func TestBankRestoreRejectsCorruption(t *testing.T) {
	m := NewBank()
	openAccount(t, m, "x", 1)
	home := shardOf("x")
	chunk := m.ForkSnapshot().Chunk(home)
	m2 := NewBank()
	if err := m2.RestoreChunk(home, chunk[:len(chunk)-1]); err == nil {
		t.Fatal("truncated chunk accepted")
	}
	if err := m2.RestoreChunk(home, append(bytes.Clone(chunk), 9)); err == nil {
		t.Fatal("padded chunk accepted")
	}
	if err := m2.RestoreChunk((home+1)%numShards, chunk); err == nil {
		t.Fatal("chunk installed into the wrong shard index")
	}
}

func TestBankBadOps(t *testing.T) {
	m := NewBank()
	for _, op := range [][]byte{nil, {0}, {77}, {byte(BankOpen)}} {
		if st := ReplyStatus(m.Apply(op)); st != StatusBadOp {
			t.Errorf("op %v: %v", op, st)
		}
	}
}
