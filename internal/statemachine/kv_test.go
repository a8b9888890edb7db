package statemachine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKVPutGetDelete(t *testing.T) {
	m := NewKVStore()
	if st := ReplyStatus(m.Apply(EncodeGet("k"))); st != StatusNotFound {
		t.Fatalf("get on empty: %v", st)
	}
	if st := ReplyStatus(m.Apply(EncodePut("k", []byte("v1")))); st != StatusOK {
		t.Fatalf("put: %v", st)
	}
	rep := m.Apply(EncodeGet("k"))
	if ReplyStatus(rep) != StatusOK || string(ReplyPayload(rep)) != "v1" {
		t.Fatalf("get: %v %q", ReplyStatus(rep), ReplyPayload(rep))
	}
	if st := ReplyStatus(m.Apply(EncodeDelete("k"))); st != StatusOK {
		t.Fatalf("delete: %v", st)
	}
	if st := ReplyStatus(m.Apply(EncodeGet("k"))); st != StatusNotFound {
		t.Fatalf("get after delete: %v", st)
	}
	// Deleting an absent key is still OK (idempotent).
	if st := ReplyStatus(m.Apply(EncodeDelete("nope"))); st != StatusOK {
		t.Fatalf("delete absent: %v", st)
	}
}

func TestKVAppend(t *testing.T) {
	m := NewKVStore()
	m.Apply(EncodeAppend("k", []byte("ab")))
	m.Apply(EncodeAppend("k", []byte("cd")))
	rep := m.Apply(EncodeGet("k"))
	if string(ReplyPayload(rep)) != "abcd" {
		t.Fatalf("append result %q", ReplyPayload(rep))
	}
}

func TestKVCAS(t *testing.T) {
	m := NewKVStore()
	if st := ReplyStatus(m.Apply(EncodeCAS("k", []byte("x"), []byte("y")))); st != StatusNotFound {
		t.Fatalf("cas absent: %v", st)
	}
	m.Apply(EncodePut("k", []byte("a")))
	rep := m.Apply(EncodeCAS("k", []byte("wrong"), []byte("b")))
	if ReplyStatus(rep) != StatusConflict || string(ReplyPayload(rep)) != "a" {
		t.Fatalf("cas mismatch: %v %q", ReplyStatus(rep), ReplyPayload(rep))
	}
	if st := ReplyStatus(m.Apply(EncodeCAS("k", []byte("a"), []byte("b")))); st != StatusOK {
		t.Fatalf("cas: %v", st)
	}
	if string(ReplyPayload(m.Apply(EncodeGet("k")))) != "b" {
		t.Fatal("cas did not swap")
	}
}

func TestKVKeysPrefixAndLimit(t *testing.T) {
	m := NewKVStore()
	for _, k := range []string{"a/1", "a/3", "a/2", "b/1"} {
		m.Apply(EncodePut(k, nil))
	}
	rep := m.Apply(EncodeKeys("a/", 0))
	keys, err := DecodeKeysReply(ReplyPayload(rep))
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 || keys[0] != "a/1" || keys[2] != "a/3" {
		t.Fatalf("keys: %v", keys)
	}
	rep = m.Apply(EncodeKeys("a/", 2))
	keys, _ = DecodeKeysReply(ReplyPayload(rep))
	if len(keys) != 2 {
		t.Fatalf("limited keys: %v", keys)
	}
}

func TestKVSize(t *testing.T) {
	m := NewKVStore()
	m.Apply(EncodePut("a", nil))
	m.Apply(EncodePut("b", nil))
	n, err := DecodeUvarintReply(ReplyPayload(m.Apply(EncodeSize())))
	if err != nil || n != 2 {
		t.Fatalf("size: %d %v", n, err)
	}
}

func TestKVBadOps(t *testing.T) {
	m := NewKVStore()
	for _, op := range [][]byte{nil, {}, {99}, {byte(KVPut)}, {byte(KVGet), 0xff}} {
		if st := ReplyStatus(m.Apply(op)); st != StatusBadOp {
			t.Errorf("op %v: %v", op, st)
		}
	}
}

func TestKVSnapshotRoundTrip(t *testing.T) {
	m := NewKVStore()
	for i := 0; i < 100; i++ {
		m.Apply(EncodePut(fmt.Sprintf("k%03d", i), []byte{byte(i), byte(i >> 1)}))
	}
	m2 := NewKVStore()
	if err := roundTrip(m, m2, nil); err != nil {
		t.Fatal(err)
	}
	if m2.Len() != 100 {
		t.Fatalf("restored len %d", m2.Len())
	}
}

// TestKVSnapshotDeterministic checks the P5 precondition: two machines fed
// the same ops in the same order fork into byte-identical chunks.
func TestKVSnapshotDeterministic(t *testing.T) {
	ops := make([][]byte, 0, 300)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("key-%d", rng.Intn(50))
		switch rng.Intn(4) {
		case 0:
			ops = append(ops, EncodePut(k, []byte{byte(rng.Intn(256))}))
		case 1:
			ops = append(ops, EncodeDelete(k))
		case 2:
			ops = append(ops, EncodeAppend(k, []byte("x")))
		default:
			ops = append(ops, EncodeGet(k))
		}
	}
	m1, m2 := NewKVStore(), NewKVStore()
	for _, op := range ops {
		r1, r2 := m1.Apply(op), m2.Apply(op)
		if !bytes.Equal(r1, r2) {
			t.Fatal("replies diverged")
		}
	}
	if !sameChunks(chunksOf(m1.ForkSnapshot()), chunksOf(m2.ForkSnapshot())) {
		t.Fatal("snapshots diverged")
	}
}

// TestKVRestoreEquivalenceProperty is invariant P5 over arbitrary keys and
// values: a KVStore restored from a fork of m is observationally equal to m.
func TestKVRestoreEquivalenceProperty(t *testing.T) {
	f := func(keys []string, vals [][]byte, probe string) bool {
		m := NewKVStore()
		for i, k := range keys {
			var v []byte
			if i < len(vals) {
				v = vals[i]
			}
			m.Apply(EncodePut(k, v))
		}
		m2 := NewKVStore()
		if err := roundTrip(m, m2, nil); err != nil {
			return false
		}
		for _, k := range append(keys, probe) {
			if !bytes.Equal(m.Apply(EncodeGet(k)), m2.Apply(EncodeGet(k))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestKVRestoreRejectsCorruption(t *testing.T) {
	m := NewKVStore()
	m.Apply(EncodePut("k", []byte("v")))
	home := shardOf("k")
	chunk := m.ForkSnapshot().Chunk(home)
	for _, bad := range [][]byte{
		chunk[:len(chunk)-1],             // truncated
		append(bytes.Clone(chunk), 0x00), // trailing garbage
		{0xff, 0xff, 0xff, 0xff},         // absurd count
		{0x80},                           // torn count
	} {
		if err := NewKVStore().RestoreChunk(home, bad); err == nil {
			t.Errorf("corrupted chunk %x accepted", bad[:min(8, len(bad))])
		}
	}
	for _, index := range []int{-1, numShards} {
		if err := NewKVStore().RestoreChunk(index, chunk); err == nil {
			t.Errorf("chunk index %d accepted", index)
		}
	}
	if err := NewKVStore().FinishRestore(numShards - 1); err == nil {
		t.Error("restore with a chunk short finished")
	}
}

// The op a machine is handed is a window of a larger buffer that belongs to
// somebody else (a batch's accept record): what Put and CAS keep they copy, so
// the stored value neither changes with that buffer nor holds on to it.
func TestKVPutCopiesWhatItKeeps(t *testing.T) {
	m := NewKVStore()
	value := []byte("the value as it was put")
	put := EncodePut("k", value)
	if ReplyStatus(m.Apply(put)) != StatusOK {
		t.Fatal("put failed")
	}
	for i := range put {
		put[i] = 0xff
	}
	if got := ReplyPayload(m.Apply(EncodeGet("k"))); !bytes.Equal(got, value) {
		t.Fatalf("the stored value followed the op buffer: %q", got)
	}

	swapped := []byte("the value after the swap")
	cas := EncodeCAS("k", value, swapped)
	if ReplyStatus(m.Apply(cas)) != StatusOK {
		t.Fatal("cas failed")
	}
	for i := range cas {
		cas[i] = 0xff
	}
	if got := ReplyPayload(m.Apply(EncodeGet("k"))); !bytes.Equal(got, swapped) {
		t.Fatalf("the swapped-in value followed the op buffer: %q", got)
	}

	app := EncodeAppend("k", []byte("+suffix"))
	if ReplyStatus(m.Apply(app)) != StatusOK {
		t.Fatal("append failed")
	}
	for i := range app {
		app[i] = 0xff
	}
	if got := ReplyPayload(m.Apply(EncodeGet("k"))); !bytes.Equal(got, append(swapped, "+suffix"...)) {
		t.Fatalf("the appended value followed the op buffer: %q", got)
	}
}
