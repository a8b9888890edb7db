package statemachine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/types"
)

// randomBatch draws a decided batch with the hazards parallel apply must
// survive: same-key contention, duplicate and stale retries, noops, system
// commands, and barrier ops (KVKeys/KVSize or bank transfers/totals).
func randomKVBatch(rng *rand.Rand, seqs map[types.NodeID]uint64, n int) []types.Command {
	cmds := make([]types.Command, 0, n)
	for i := 0; i < n; i++ {
		client := types.NodeID(fmt.Sprintf("c%d", rng.Intn(4)))
		key := fmt.Sprintf("k%d", rng.Intn(6))
		var op []byte
		switch rng.Intn(12) {
		case 0:
			op = EncodeGet(key)
		case 1:
			op = EncodeDelete(key)
		case 2:
			op = EncodeAppend(key, []byte{byte('a' + rng.Intn(4))})
		case 3:
			op = EncodeCAS(key, []byte("v1"), []byte("v2"))
		case 4:
			op = EncodeKeys("k", 10) // barrier
		case 5:
			op = EncodeSize() // barrier
		default:
			op = EncodePut(key, []byte(fmt.Sprintf("v%d", rng.Intn(4))))
		}
		switch rng.Intn(10) {
		case 0: // duplicate of the client's last applied command
			cmds = append(cmds, types.Command{Kind: types.CmdApp, Client: client, Seq: seqs[client], Data: op})
		case 1: // stale retry
			if seqs[client] > 1 {
				cmds = append(cmds, types.Command{Kind: types.CmdApp, Client: client, Seq: seqs[client] - 1, Data: op})
				continue
			}
			fallthrough
		case 2: // noop
			cmds = append(cmds, types.Command{Kind: types.CmdNoop})
		case 3: // system command, no session
			cmds = append(cmds, types.Command{Kind: types.CmdApp, Data: op})
		default:
			seqs[client]++
			cmds = append(cmds, types.Command{Kind: types.CmdApp, Client: client, Seq: seqs[client], Data: op})
		}
	}
	return cmds
}

func randomBankBatch(rng *rand.Rand, seqs map[types.NodeID]uint64, n int) []types.Command {
	accts := []string{"a", "b", "c", "d", "e"}
	cmds := make([]types.Command, 0, n)
	for i := 0; i < n; i++ {
		client := types.NodeID(fmt.Sprintf("c%d", rng.Intn(4)))
		var op []byte
		switch rng.Intn(8) {
		case 0:
			op = EncodeOpen(accts[rng.Intn(len(accts))], uint64(rng.Intn(50)))
		case 1:
			op = EncodeBalance(accts[rng.Intn(len(accts))])
		case 2, 3:
			op = EncodeTotal() // barrier
		default:
			op = EncodeTransfer(accts[rng.Intn(len(accts))], accts[rng.Intn(len(accts))], uint64(rng.Intn(10))) // barrier
		}
		seqs[client]++
		cmds = append(cmds, types.Command{Kind: types.CmdApp, Client: client, Seq: seqs[client], Data: op})
	}
	return cmds
}

// TestApplyBatchMatchesSerial checks the load-bearing property of parallel
// apply: for any decided batch, ApplyBatch produces byte-identical replies,
// duplicate flags and end state to a loop over ApplyCommand, the serial
// semantics it must match.
func TestApplyBatchMatchesSerial(t *testing.T) {
	type gen func(*rand.Rand, map[types.NodeID]uint64, int) []types.Command
	cases := []struct {
		name    string
		factory Factory
		batch   gen
	}{
		{"kv", NewKVMachine, randomKVBatch},
		{"bank", NewBankMachine, randomBankBatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				serial := NewSessioned(tc.factory())
				par := NewSessioned(tc.factory())
				rng := rand.New(rand.NewSource(seed))
				seqs := make(map[types.NodeID]uint64)
				for round := 0; round < 8; round++ {
					// Replay the same batch into both machines. Sizes
					// straddle parallelApplyMinOps so both the fan-out and
					// the small-batch serial shortcut are exercised.
					batch := tc.batch(rng, seqs, 4+rng.Intn(120))
					wantReplies := make([][]byte, len(batch))
					wantDups := make([]bool, len(batch))
					for i, cmd := range batch {
						wantReplies[i], wantDups[i] = serial.ApplyCommand(cmd)
					}
					gotReplies, gotDups := par.ApplyBatch(batch)
					for i := range batch {
						if gotDups[i] != wantDups[i] {
							t.Fatalf("seed %d round %d cmd %d: dup=%v want %v", seed, round, i, gotDups[i], wantDups[i])
						}
						if !bytes.Equal(gotReplies[i], wantReplies[i]) {
							t.Fatalf("seed %d round %d cmd %d: reply %x want %x", seed, round, i, gotReplies[i], wantReplies[i])
						}
					}
					if !sameChunks(chunksOf(par.ForkSnapshot()), chunksOf(serial.ForkSnapshot())) {
						t.Fatalf("seed %d round %d: snapshots diverge after batch", seed, round)
					}
				}
			}
		})
	}
}

// TestApplyBatchDuringFork checks that parallel apply respects copy-on-write
// forks: a snapshot forked before the batch must be unaffected by the
// batch's mutations even while shard workers clone shards concurrently.
func TestApplyBatchDuringFork(t *testing.T) {
	s := NewSessioned(NewKVStore())
	for i := 0; i < 40; i++ {
		s.ApplyCommand(types.Command{Kind: types.CmdApp, Client: "c0", Seq: uint64(i + 1),
			Data: EncodePut(fmt.Sprintf("k%d", i), []byte("before"))})
	}
	before := chunksOf(s.ForkSnapshot())
	fork := s.ForkSnapshot()
	rng := rand.New(rand.NewSource(7))
	seqs := map[types.NodeID]uint64{"c0": 40}
	s.ApplyBatch(randomKVBatch(rng, seqs, 200))
	restored := NewSessioned(NewKVStore())
	restoreAll(t, restored, fork, nil)
	if !sameChunks(chunksOf(restored.ForkSnapshot()), before) {
		t.Fatal("fork captured before the batch observed the batch's writes")
	}
}

func TestOpShardBarriers(t *testing.T) {
	kv := NewKVStore()
	if _, ok := kv.OpShard(EncodeKeys("k", 1)); ok {
		t.Fatal("KVKeys must be a barrier")
	}
	if _, ok := kv.OpShard(EncodeSize()); ok {
		t.Fatal("KVSize must be a barrier")
	}
	if _, ok := kv.OpShard(nil); ok {
		t.Fatal("empty op must be a barrier")
	}
	if sh, ok := kv.OpShard(EncodePut("k1", []byte("v"))); !ok || sh != shardOf("k1") {
		t.Fatalf("KVPut shard = %d,%v want %d,true", sh, ok, shardOf("k1"))
	}
	b := NewBank()
	if _, ok := b.OpShard(EncodeTransfer("a", "b", 1)); ok {
		t.Fatal("BankTransfer must be a barrier")
	}
	if _, ok := b.OpShard(EncodeTotal()); ok {
		t.Fatal("BankTotal must be a barrier")
	}
	if sh, ok := b.OpShard(EncodeDeposit("a", 1)); !ok || sh != shardOf("a") {
		t.Fatalf("BankDeposit shard = %d,%v want %d,true", sh, ok, shardOf("a"))
	}
}
