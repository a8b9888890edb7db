package workload

import (
	"testing"

	"repro/internal/statemachine"
)

func TestGeneratorReadRatio(t *testing.T) {
	g := NewGenerator(Profile{Keys: 100, ReadRatio: 0.8, Seed: 1})
	reads := 0
	const total = 5000
	for i := 0; i < total; i++ {
		if IsRead(g.Op()) {
			reads++
		}
	}
	ratio := float64(reads) / total
	if ratio < 0.75 || ratio > 0.85 {
		t.Fatalf("read ratio %f", ratio)
	}
}

func TestGeneratorAllWritesAllReads(t *testing.T) {
	g := NewGenerator(Profile{ReadRatio: 0, Seed: 2})
	for i := 0; i < 100; i++ {
		if IsRead(g.Op()) {
			t.Fatal("read with ratio 0")
		}
	}
	g = NewGenerator(Profile{ReadRatio: 1, Seed: 2})
	for i := 0; i < 100; i++ {
		if !IsRead(g.Op()) {
			t.Fatal("write with ratio 1")
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	g1 := NewGenerator(Profile{Keys: 50, ReadRatio: 0.5, Seed: 7})
	g2 := NewGenerator(Profile{Keys: 50, ReadRatio: 0.5, Seed: 7})
	for i := 0; i < 200; i++ {
		a, b := g1.Op(), g2.Op()
		if string(a) != string(b) {
			t.Fatalf("diverged at %d", i)
		}
	}
}

func TestGeneratorSplitIndependent(t *testing.T) {
	g := NewGenerator(Profile{Seed: 3})
	a := g.Split(1)
	b := g.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if string(a.Op()) == string(b.Op()) {
			same++
		}
	}
	if same == 100 {
		t.Fatal("split generators identical")
	}
}

func TestZipfSkew(t *testing.T) {
	g := NewGenerator(Profile{Keys: 1000, Dist: Zipf, Seed: 4})
	counts := make(map[string]int)
	const total = 10000
	for i := 0; i < total; i++ {
		counts[g.Key()]++
	}
	var max int
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Zipf: the hottest key should far exceed the uniform share.
	if max < total/100 {
		t.Fatalf("hottest key only %d of %d", max, total)
	}
	// Uniform comparison: no key should dominate like that.
	gu := NewGenerator(Profile{Keys: 1000, Dist: Uniform, Seed: 4})
	ucounts := make(map[string]int)
	for i := 0; i < total; i++ {
		ucounts[gu.Key()]++
	}
	var umax int
	for _, c := range ucounts {
		if c > umax {
			umax = c
		}
	}
	if umax >= max {
		t.Fatalf("uniform max %d >= zipf max %d", umax, max)
	}
}

func TestPreloadOpsPopulateMachine(t *testing.T) {
	m := statemachine.NewKVStore()
	for _, op := range PreloadOps(100, 32) {
		if statemachine.ReplyStatus(m.Apply(op)) != statemachine.StatusOK {
			t.Fatal("preload op failed")
		}
	}
	if m.Len() != 100 {
		t.Fatalf("len %d", m.Len())
	}
	fork := m.ForkSnapshot()
	size := 0
	for i := 0; i < fork.NumChunks(); i++ {
		size += len(fork.Chunk(i))
	}
	est := StateBytes(100, 32)
	if size < est/2 || size > est*2 {
		t.Fatalf("estimate %d vs snapshot %d", est, size)
	}
}

func TestProfileDefaults(t *testing.T) {
	p := Profile{ReadRatio: -1}.withDefaults()
	if p.Keys != 1000 || p.ValueSize != 64 || p.ReadRatio != 0 || p.Dist != Uniform {
		t.Fatalf("%+v", p)
	}
	p = Profile{ReadRatio: 2}.withDefaults()
	if p.ReadRatio != 1 {
		t.Fatalf("%+v", p)
	}
}
