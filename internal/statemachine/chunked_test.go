package statemachine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/types"
)

// restorer is what a snapshot restores into: a Machine or a Sessioned.
type restorer interface {
	ForkSnapshot() SnapshotSource
	RestoreChunk(index int, data []byte) error
	FinishRestore(total int) error
}

// chunksOf serializes every chunk of src.
func chunksOf(src SnapshotSource) [][]byte {
	chunks := make([][]byte, src.NumChunks())
	for i := range chunks {
		chunks[i] = src.Chunk(i)
	}
	return chunks
}

// restoreChunks feeds chunks into dst in the order rng shuffles them to (in
// index order for a nil rng) and finishes the restore.
func restoreChunks(dst restorer, chunks [][]byte, rng *rand.Rand) error {
	order := make([]int, len(chunks))
	for i := range order {
		order[i] = i
	}
	if rng != nil {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	for _, i := range order {
		if err := dst.RestoreChunk(i, chunks[i]); err != nil {
			return fmt.Errorf("RestoreChunk(%d): %w", i, err)
		}
	}
	return dst.FinishRestore(len(chunks))
}

// restoreAll restores every chunk of src into dst, failing the test on error.
func restoreAll(t *testing.T, dst restorer, src SnapshotSource, rng *rand.Rand) {
	t.Helper()
	if err := restoreChunks(dst, chunksOf(src), rng); err != nil {
		t.Fatal(err)
	}
}

// sameChunks reports whether two snapshots are byte-identical chunk for chunk.
func sameChunks(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// roundTrip restores a fork of src into the fresh dst, chunks in the order rng
// shuffles them to, and reports whether dst then forks into byte-identical
// chunks.
func roundTrip(src, dst restorer, rng *rand.Rand) error {
	want := chunksOf(src.ForkSnapshot())
	if err := restoreChunks(dst, want, rng); err != nil {
		return err
	}
	if !sameChunks(chunksOf(dst.ForkSnapshot()), want) {
		return fmt.Errorf("restored machine forks into different chunks")
	}
	return nil
}

// Random ops per machine for TestForkRestoreProperty: writes and reads over a
// small key space, so keys collide, and malformed ops now and then.
func randomKVOp(rng *rand.Rand) []byte {
	key := fmt.Sprintf("k%d", rng.Intn(64))
	switch rng.Intn(8) {
	case 0:
		return EncodeDelete(key)
	case 1:
		return EncodeAppend(key, []byte{byte(rng.Intn(256))})
	case 2:
		return EncodeCAS(key, []byte("v1"), []byte("v2"))
	case 3:
		return EncodeGet(key)
	case 4:
		return EncodeKeys("k1", uint64(rng.Intn(4)))
	case 5:
		return []byte{byte(rng.Intn(9))}
	default:
		return EncodePut(key, []byte(fmt.Sprintf("v%d", rng.Intn(3))))
	}
}

func randomBankOp(rng *rand.Rand) []byte {
	acct := func() string { return fmt.Sprintf("a%d", rng.Intn(16)) }
	switch rng.Intn(6) {
	case 0:
		return EncodeOpen(acct(), uint64(rng.Intn(1000)))
	case 1:
		return EncodeDeposit(acct(), uint64(rng.Intn(100)))
	case 2:
		return EncodeBalance(acct())
	case 3:
		return EncodeTotal()
	default:
		return EncodeTransfer(acct(), acct(), uint64(rng.Intn(300)))
	}
}

func randomCounterOp(rng *rand.Rand) []byte {
	switch rng.Intn(4) {
	case 0:
		return EncodeCounterSet(uint64(rng.Intn(1 << 20)))
	case 1:
		return EncodeCounterGet()
	default:
		return EncodeAdd(uint64(rng.Intn(1000)))
	}
}

// TestForkRestoreProperty is invariant P5 for every machine, session table
// included: for a random history, forking, restoring the chunks into a fresh
// machine in shuffled order and finishing gives a machine that forks into
// byte-identical chunks and answers every later command — duplicates and
// stale retries included — with the same reply as the original; and a fork
// taken before those later commands still restores to the state at the fork.
func TestForkRestoreProperty(t *testing.T) {
	for _, tc := range []struct {
		name    string
		factory Factory
		op      func(*rand.Rand) []byte
	}{
		{"kv", NewKVMachine, randomKVOp},
		{"bank", NewBankMachine, randomBankOp},
		{"counter", NewCounterMachine, randomCounterOp},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				seqs := make(map[types.NodeID]uint64)
				next := func() types.Command {
					c := types.NodeID(fmt.Sprintf("c%d", rng.Intn(4)))
					seq := seqs[c]
					switch rng.Intn(10) {
					case 0: // a retry of the client's last command
					case 1: // a stale retry
						if seq > 0 {
							seq--
						}
					default:
						seqs[c]++
						seq = seqs[c]
					}
					return appCmd(c, seq, tc.op(rng))
				}
				src := NewSessioned(tc.factory())
				for i, n := 0, rng.Intn(400); i < n; i++ {
					src.ApplyCommand(next())
				}
				dst := NewSessioned(tc.factory())
				if err := roundTrip(src, dst, rng); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				fork, atFork := src.ForkSnapshot(), chunksOf(src.ForkSnapshot())
				for i := 0; i < 100; i++ {
					cmd := next()
					r1, d1 := src.ApplyCommand(cmd)
					r2, d2 := dst.ApplyCommand(cmd)
					if d1 != d2 || !bytes.Equal(r1, r2) {
						t.Fatalf("seed %d cmd %d: restored replies (%x, dup %v), original (%x, dup %v)", seed, i, r2, d2, r1, d1)
					}
				}
				old := NewSessioned(tc.factory())
				restoreAll(t, old, fork, rng)
				if !sameChunks(chunksOf(old.ForkSnapshot()), atFork) {
					t.Fatalf("seed %d: a fork taken before 100 more commands restores to a later state", seed)
				}
			}
		})
	}
}

func TestKVChunkedForkRoundTrip(t *testing.T) {
	m := NewKVStore()
	for i := 0; i < 500; i++ {
		m.Apply(EncodePut(fmt.Sprintf("key-%04d", i), []byte(fmt.Sprintf("val-%d", i))))
	}
	fork := m.ForkSnapshot()
	if fork.NumChunks() != numShards {
		t.Fatalf("chunks = %d, want %d", fork.NumChunks(), numShards)
	}

	m2 := NewKVStore()
	restoreAll(t, m2, fork, rand.New(rand.NewSource(1))) // out-of-order delivery
	if !sameChunks(chunksOf(m2.ForkSnapshot()), chunksOf(fork)) {
		t.Fatal("restored machine forks into different chunks")
	}
	if m2.Len() != 500 {
		t.Fatalf("restored Len = %d", m2.Len())
	}
}

// TestKVForkIsolation proves the fork is copy-on-write: mutations applied
// after the fork must not leak into the fork's chunks.
func TestKVForkIsolation(t *testing.T) {
	m := NewKVStore()
	for i := 0; i < 200; i++ {
		m.Apply(EncodePut(fmt.Sprintf("key-%04d", i), []byte("old")))
	}
	want := chunksOf(m.ForkSnapshot())
	fork := m.ForkSnapshot()

	// Mutate every key, delete some, add new ones — after the fork.
	for i := 0; i < 200; i++ {
		m.Apply(EncodePut(fmt.Sprintf("key-%04d", i), []byte("NEW")))
	}
	for i := 0; i < 50; i++ {
		m.Apply(EncodeDelete(fmt.Sprintf("key-%04d", i)))
	}
	m.Apply(EncodePut("extra", []byte("x")))

	m2 := NewKVStore()
	restoreAll(t, m2, fork, nil)
	if !sameChunks(chunksOf(m2.ForkSnapshot()), want) {
		t.Fatal("fork observed post-fork mutations")
	}
	// Live machine kept its new state.
	if rep := m.Apply(EncodeGet("key-0100")); !bytes.Equal(rep, okReply([]byte("NEW"))) {
		t.Fatalf("live machine lost post-fork write: %q", rep)
	}
	if m.Len() != 151 {
		t.Fatalf("live Len = %d, want 151", m.Len())
	}
}

// TestApplyBatchDuringFork: a decided batch applied after a fork, through the
// session table and with the hazards a batch carries (duplicate and stale
// retries, noops, commands without a session), does not leak into the fork.
func TestApplyBatchDuringFork(t *testing.T) {
	s := NewSessioned(NewKVStore())
	for i := 0; i < 40; i++ {
		s.ApplyCommand(appCmd("c0", uint64(i+1), EncodePut(fmt.Sprintf("k%d", i), []byte("before"))))
	}
	before := chunksOf(s.ForkSnapshot())
	fork := s.ForkSnapshot()
	rng := rand.New(rand.NewSource(7))
	seqs := map[types.NodeID]uint64{"c0": 40}
	for i := 0; i < 200; i++ {
		c := types.NodeID(fmt.Sprintf("c%d", rng.Intn(4)))
		op := randomKVOp(rng)
		switch rng.Intn(10) {
		case 0: // a retry of the client's last command
			s.ApplyCommand(appCmd(c, seqs[c], op))
		case 1: // a stale retry
			if seqs[c] > 1 {
				s.ApplyCommand(appCmd(c, seqs[c]-1, op))
			}
		case 2:
			s.ApplyCommand(types.Command{Kind: types.CmdNoop})
		case 3: // no session
			s.ApplyCommand(types.Command{Kind: types.CmdApp, Data: op})
		default:
			seqs[c]++
			s.ApplyCommand(appCmd(c, seqs[c], op))
		}
	}
	restored := NewSessioned(NewKVStore())
	restoreAll(t, restored, fork, nil)
	if !sameChunks(chunksOf(restored.ForkSnapshot()), before) {
		t.Fatal("fork captured before the batch observed the batch's writes")
	}
	if sameChunks(chunksOf(s.ForkSnapshot()), before) {
		t.Fatal("the batch changed nothing, so the test proves nothing")
	}
}

// TestKVForkConcurrentApply races the checkpoint producer's usage of the
// fork: chunks are serialized from a background goroutine (as
// publishCheckpoint does, paced off the critical path) while the parent
// machine keeps applying. The copy-on-write contract says the fork's shard
// maps are frozen at fork time — under -race this catches any sharing
// between the fork's read path and the parent's clone-before-write path, and
// the final comparison catches value leaks either direction.
func TestKVForkConcurrentApply(t *testing.T) {
	m := NewKVStore()
	for i := 0; i < 400; i++ {
		m.Apply(EncodePut(fmt.Sprintf("key-%04d", i), []byte("old")))
	}
	want := chunksOf(m.ForkSnapshot())
	fork := m.ForkSnapshot()

	done := make(chan [][]byte, 1)
	go func() { done <- chunksOf(fork) }()
	// Touch every shard after the fork: overwrites, deletes, inserts.
	for i := 0; i < 400; i++ {
		m.Apply(EncodePut(fmt.Sprintf("key-%04d", i), []byte("NEW")))
		if i%3 == 0 {
			m.Apply(EncodeDelete(fmt.Sprintf("key-%04d", i)))
		}
	}
	chunks := <-done

	m2 := NewKVStore()
	if err := restoreChunks(m2, chunks, nil); err != nil {
		t.Fatal(err)
	}
	if !sameChunks(chunksOf(m2.ForkSnapshot()), want) {
		t.Fatal("concurrently serialized fork diverges from the state at fork time")
	}
	if rep := m.Apply(EncodeGet("key-0101")); !bytes.Equal(rep, okReply([]byte("NEW"))) {
		t.Fatalf("live machine lost a post-fork write: %q", rep)
	}
}

// TestKVForkDeterministic: two machines with equal state (built in different
// orders) produce byte-identical chunk sequences — required for multi-source
// fetch against a single CRC manifest.
func TestKVForkDeterministic(t *testing.T) {
	a, b := NewKVStore(), NewKVStore()
	for i := 0; i < 300; i++ {
		a.Apply(EncodePut(fmt.Sprintf("k%03d", i), []byte{byte(i)}))
	}
	for i := 299; i >= 0; i-- {
		b.Apply(EncodePut(fmt.Sprintf("k%03d", i), []byte{byte(i)}))
	}
	fa, fb := a.ForkSnapshot(), b.ForkSnapshot()
	for i := 0; i < fa.NumChunks(); i++ {
		if !bytes.Equal(fa.Chunk(i), fb.Chunk(i)) {
			t.Fatalf("chunk %d differs between equal-state replicas", i)
		}
	}
}

func TestKVRestoreChunkRejectsMisplacedKey(t *testing.T) {
	m := NewKVStore()
	m.Apply(EncodePut("somekey", []byte("v")))
	fork := m.ForkSnapshot()
	home := shardOf("somekey")
	wrong := (home + 1) % numShards
	if err := NewKVStore().RestoreChunk(wrong, fork.Chunk(home)); err == nil {
		t.Fatal("chunk installed into the wrong shard index")
	}
}

func TestBankChunkedForkRoundTrip(t *testing.T) {
	m := NewBank()
	for i := 0; i < 300; i++ {
		m.Apply(EncodeOpen(fmt.Sprintf("acct-%03d", i), uint64(i)))
	}
	want := chunksOf(m.ForkSnapshot())
	fork := m.ForkSnapshot()

	// Post-fork mutations must not leak.
	m.Apply(EncodeTransfer("acct-001", "acct-002", 1))

	m2 := NewBank()
	restoreAll(t, m2, fork, rand.New(rand.NewSource(2)))
	if !sameChunks(chunksOf(m2.ForkSnapshot()), want) {
		t.Fatal("bank chunked restore diverges")
	}
	if m2.Total() != m.Total() {
		t.Fatalf("conservation violated: %d vs %d", m2.Total(), m.Total())
	}
}

func TestSessionedChunkedShardMode(t *testing.T) {
	s := NewSessioned(NewKVStore())
	for i := 0; i < 100; i++ {
		s.ApplyCommand(appCmd("c1", uint64(i+1), EncodePut(fmt.Sprintf("k%d", i), []byte("v"))))
	}
	s.ApplyCommand(appCmd("c2", 7, EncodePut("other", []byte("w"))))
	fork := s.ForkSnapshot()
	if fork.NumChunks() != 1+numShards {
		t.Fatalf("chunks = %d, want %d", fork.NumChunks(), 1+numShards)
	}

	s2 := NewSessioned(NewKVStore())
	restoreAll(t, s2, fork, rand.New(rand.NewSource(3)))
	if !sameChunks(chunksOf(s2.ForkSnapshot()), chunksOf(fork)) {
		t.Fatal("restored machine forks into different chunks")
	}
	// Dedup state carried: replaying c2 seq 7 must hit the cache.
	if _, dup := s2.ApplyCommand(appCmd("c2", 7, EncodePut("other", []byte("DIFFERENT")))); !dup {
		t.Fatal("session table lost in chunked transfer")
	}
}

// TestSessionedChunkedCounter: a Counter forks into one chunk, its value,
// after the session chunk.
func TestSessionedChunkedCounter(t *testing.T) {
	s := NewSessioned(&Counter{})
	for i := 0; i < 10; i++ {
		s.ApplyCommand(appCmd("c1", uint64(i+1), EncodeAdd(3)))
	}
	fork := s.ForkSnapshot()
	if fork.NumChunks() != 2 {
		t.Fatalf("chunks = %d, want 2", fork.NumChunks())
	}

	s2 := NewSessioned(&Counter{})
	restoreAll(t, s2, fork, rand.New(rand.NewSource(4)))
	if !sameChunks(chunksOf(s2.ForkSnapshot()), chunksOf(fork)) {
		t.Fatal("restored machine forks into different chunks")
	}
	if got := s2.Inner().(*Counter).Value(); got != 30 {
		t.Fatalf("counter = %d, want 30", got)
	}
}

func TestSessionedFinishRestoreRequiresSessionChunk(t *testing.T) {
	s := NewSessioned(NewKVStore())
	fork := s.ForkSnapshot()
	s2 := NewSessioned(NewKVStore())
	for i := 1; i < fork.NumChunks(); i++ {
		if err := s2.RestoreChunk(i, fork.Chunk(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s2.FinishRestore(fork.NumChunks()); err == nil {
		t.Fatal("FinishRestore accepted a restore missing chunk 0")
	}
}

// BenchmarkForkVsSnapshot quantifies the wedge-time win: ForkSnapshot is
// O(shards), while serializing the snapshot's chunks is O(state).
func BenchmarkForkVsSnapshot(b *testing.B) {
	m := NewKVStore()
	val := make([]byte, 1024)
	for i := 0; i < 8192; i++ { // ~8 MiB of state
		m.Apply(EncodePut(fmt.Sprintf("key-%06d", i), val))
	}
	b.Run("fork", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.ForkSnapshot()
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = chunksOf(m.ForkSnapshot())
		}
	})
}
