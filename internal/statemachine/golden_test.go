package statemachine

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
)

// goldenKV is a fixed KVStore state: seeded puts, appends, overwrites and
// deletes over keys of varied length, values of varied length (empty ones
// included).
func goldenKV() *KVStore {
	rng := rand.New(rand.NewSource(34))
	m := NewKVStore()
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("k%d/%s", rng.Intn(1200), string(make([]byte, rng.Intn(4))))
		val := make([]byte, rng.Intn(300))
		rng.Read(val)
		switch rng.Intn(8) {
		case 0:
			m.Apply(EncodeDelete(key))
		case 1:
			m.Apply(EncodeAppend(key, val))
		default:
			m.Apply(EncodePut(key, val))
		}
	}
	return m
}

// goldenBank is a fixed Bank state: seeded opens, deposits and transfers.
func goldenBank() *Bank {
	rng := rand.New(rand.NewSource(34))
	m := NewBank()
	for i := 0; i < 400; i++ {
		m.Apply(EncodeOpen(fmt.Sprintf("acct-%d", rng.Intn(1000)), uint64(rng.Int63n(1<<40))))
	}
	for i := 0; i < 2000; i++ {
		from, to := fmt.Sprintf("acct-%d", rng.Intn(1000)), fmt.Sprintf("acct-%d", rng.Intn(1000))
		if rng.Intn(4) == 0 {
			m.Apply(EncodeDeposit(from, uint64(rng.Intn(1<<20))))
		} else {
			m.Apply(EncodeTransfer(from, to, uint64(rng.Int63n(1<<39))))
		}
	}
	return m
}

// TestGoldenChunkCRCs pins the CRC32-C of every chunk of a fixed KVStore and
// a fixed Bank state. The chunks are what peers fetch and stores keep, and a
// manifest's CRCs are checked against them: a change to how a shard is
// serialized — entry order, count header, key or value encoding — shows up
// here rather than as a fleet that cannot read its own snapshots.
func TestGoldenChunkCRCs(t *testing.T) {
	table := crc32.MakeTable(crc32.Castagnoli)
	for _, tc := range []struct {
		name string
		fork SnapshotSource
		want [numShards]uint32
	}{
		{"kv", goldenKV().ForkSnapshot(), [numShards]uint32{
			0x3a9bc907, 0x0f8df555, 0xa9164627, 0x8c89972d,
			0x1b838d78, 0xa6a21772, 0x1433e1ec, 0x10d42ad4,
			0x92038a3c, 0x48fb9561, 0x2a077b3c, 0x341002df,
			0x1bdcc137, 0xff0530e3, 0x7a76fc79, 0xf871d78e,
			0xb7624676, 0x7f6b8723, 0x47360573, 0x6563200d,
			0xda1c17e6, 0x469faa9c, 0xd94d3163, 0x87cf81ce,
			0x0691433b, 0x8dfc1525, 0xac649c83, 0xd44c8dea,
			0x3786b248, 0xc69a18a7, 0x9e69a08b, 0x9daad225,
		}},
		{"bank", goldenBank().ForkSnapshot(), [numShards]uint32{
			0xfb9c1d8b, 0x5db1d842, 0x73f7aa6a, 0xba570fb0,
			0x51a998ea, 0x70c8e1a0, 0x69a1a52b, 0x2929f43b,
			0xb37ffd92, 0xe8badd8f, 0x810f09e7, 0xed2ad6a1,
			0x113ed3ef, 0x11f90ebc, 0x20548dc3, 0x3ef80c2b,
			0x4dee9a93, 0x9f04241b, 0x272e4cd4, 0x6710df08,
			0x297991cf, 0xc8061f2a, 0x86dac85a, 0x81507d53,
			0x2b9390f3, 0x9856a84d, 0x4c20ce5c, 0x17341b38,
			0x7fe7cd17, 0x32b1b54f, 0x11e903c8, 0xbdcce809,
		}},
	} {
		if n := tc.fork.NumChunks(); n != numShards {
			t.Fatalf("%s: %d chunks, want %d", tc.name, n, numShards)
		}
		for i := 0; i < numShards; i++ {
			if got := crc32.Checksum(tc.fork.Chunk(i), table); got != tc.want[i] {
				t.Errorf("%s chunk %d: crc %#08x, want %#08x", tc.name, i, got, tc.want[i])
			}
		}
	}
}
