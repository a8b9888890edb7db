package statemachine

import (
	"testing"
)

// FuzzKVApply: arbitrary op bytes must never panic the machine and must
// leave it in a state that still forks and restores cleanly.
func FuzzKVApply(f *testing.F) {
	f.Add(EncodePut("k", []byte("v")))
	f.Add(EncodeGet("k"))
	f.Add(EncodeCAS("k", []byte("a"), []byte("b")))
	f.Add(EncodeKeys("pre", 10))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, op []byte) {
		m := NewKVStore()
		m.Apply(EncodePut("seed", []byte("1")))
		reply := m.Apply(op)
		if len(reply) == 0 {
			t.Fatal("empty reply")
		}
		if st := ReplyStatus(reply); !(st == StatusOK || st == StatusNotFound || st == StatusBadOp || st == StatusConflict) {
			t.Fatalf("unknown status %v", st)
		}
		if err := roundTrip(m, NewKVStore(), nil); err != nil {
			t.Fatalf("post-op snapshot broken: %v", err)
		}
	})
}

// FuzzBankApply mirrors FuzzKVApply for the bank machine, additionally
// checking that no op can mint or destroy money except the documented ones.
func FuzzBankApply(f *testing.F) {
	f.Add(EncodeTransfer("a", "b", 5))
	f.Add(EncodeBalance("a"))
	f.Add(EncodeTotal())
	f.Add([]byte{0x03})
	f.Fuzz(func(t *testing.T, op []byte) {
		m := NewBank()
		m.Apply(EncodeOpen("a", 100))
		m.Apply(EncodeOpen("b", 100))
		before := m.Total()
		reply := m.Apply(op)
		if len(reply) == 0 {
			t.Fatal("empty reply")
		}
		after := m.Total()
		// Only Open and Deposit may change the total; both require a
		// valid op of that kind.
		if after != before {
			if len(op) == 0 || (BankOp(op[0]) != BankOpen && BankOp(op[0]) != BankDeposit) {
				t.Fatalf("op %v changed total %d -> %d", op, before, after)
			}
		}
	})
}

// FuzzSessionedRestoreChunk feeds one arbitrary chunk, at an arbitrary index,
// into a restore whose other chunks are a valid snapshot's — the decoder every
// snapshot byte that arrives from a peer or a store goes through. It must
// never panic, and a restore it lets finish must leave a working machine.
func FuzzSessionedRestoreChunk(f *testing.F) {
	s := NewSessioned(NewKVStore())
	s.ApplyCommand(appCmd("c", 1, EncodePut("k", []byte("v"))))
	s.ApplyCommand(appCmd("d", 4, EncodePut("other", []byte("w"))))
	valid := chunksOf(s.ForkSnapshot())
	home := 1 + shardOf("k")
	f.Add(0, valid[0])
	f.Add(home, valid[home])
	f.Add(home, valid[1+shardOf("other")])
	f.Add(0, []byte{})
	f.Add(len(valid), []byte{0xff, 0xff})
	f.Add(-1, []byte{0x01})
	f.Fuzz(func(t *testing.T, index int, data []byte) {
		s2 := NewSessioned(NewKVStore())
		for i, c := range valid {
			if i != index {
				if err := s2.RestoreChunk(i, c); err != nil {
					t.Fatalf("valid chunk %d refused: %v", i, err)
				}
			}
		}
		if s2.RestoreChunk(index, data) != nil || s2.FinishRestore(len(valid)) != nil {
			return
		}
		if reply, _ := s2.ApplyCommand(appCmd("probe", 1, EncodeGet("k"))); len(reply) == 0 {
			t.Fatal("restored machine dead")
		}
		if err := roundTrip(s2, NewSessioned(NewKVStore()), nil); err != nil {
			t.Fatalf("restored machine does not round-trip: %v", err)
		}
	})
}
