package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/types"
)

// collect registers a handler that appends payload copies to a shared slice.
func collect(e *Endpoint, stream uint64) (*sync.Mutex, *[]string) {
	var mu sync.Mutex
	msgs := &[]string{}
	e.Handle(stream, func(from types.NodeID, s uint64, kind uint8, payload []byte) {
		mu.Lock()
		*msgs = append(*msgs, string(payload))
		mu.Unlock()
	})
	return &mu, msgs
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestBasicDelivery(t *testing.T) {
	n := NewNetwork(Options{})
	defer n.Close()
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	mu, msgs := collect(b, 1)

	if err := a.Send("b", 1, 7, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(*msgs) == 1 }, "delivery")
	mu.Lock()
	if (*msgs)[0] != "hello" {
		t.Fatalf("got %q", (*msgs)[0])
	}
	mu.Unlock()

	st := n.Stats()
	if st.MessagesSent != 1 || st.Delivered != 1 || st.BytesSent != 5 {
		t.Fatalf("stats %+v", st)
	}
	if st.PerKind[7].Messages != 1 || st.PerKind[7].Bytes != 5 {
		t.Fatalf("per-kind stats %+v", st.PerKind)
	}
}

func TestSendToUnknownNode(t *testing.T) {
	n := NewNetwork(Options{})
	defer n.Close()
	a := n.Endpoint("a")
	if err := a.Send("ghost", 1, 0, nil); err == nil {
		t.Fatal("expected ErrUnknownNode")
	}
}

func TestStreamDemux(t *testing.T) {
	n := NewNetwork(Options{})
	defer n.Close()
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	mu1, s1 := collect(b, 1)
	mu2, s2 := collect(b, 2)

	_ = a.Send("b", 1, 0, []byte("one"))
	_ = a.Send("b", 2, 0, []byte("two"))
	waitFor(t, func() bool {
		mu1.Lock()
		n1 := len(*s1)
		mu1.Unlock()
		mu2.Lock()
		n2 := len(*s2)
		mu2.Unlock()
		return n1 == 1 && n2 == 1
	}, "both streams")
	mu1.Lock()
	defer mu1.Unlock()
	mu2.Lock()
	defer mu2.Unlock()
	if (*s1)[0] != "one" || (*s2)[0] != "two" {
		t.Fatalf("demux wrong: %v %v", *s1, *s2)
	}
}

func TestCatchAllHandler(t *testing.T) {
	n := NewNetwork(Options{})
	defer n.Close()
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	var got atomic.Int64
	b.HandleAll(func(from types.NodeID, s uint64, kind uint8, payload []byte) {
		if s == 99 {
			got.Add(1)
		}
	})
	_ = a.Send("b", 99, 0, []byte("x"))
	waitFor(t, func() bool { return got.Load() == 1 }, "catch-all")
}

func TestLatencyOrdering(t *testing.T) {
	n := NewNetwork(Options{BaseLatency: 5 * time.Millisecond})
	defer n.Close()
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	mu, msgs := collect(b, 1)

	start := time.Now()
	_ = a.Send("b", 1, 0, []byte("m1"))
	_ = a.Send("b", 1, 0, []byte("m2"))
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(*msgs) == 2 }, "two deliveries")
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("delivered too fast: %v", elapsed)
	}
	mu.Lock()
	defer mu.Unlock()
	// Without jitter, same-source same-dest messages preserve order.
	if (*msgs)[0] != "m1" || (*msgs)[1] != "m2" {
		t.Fatalf("order violated: %v", *msgs)
	}
}

func TestLossRateDropsEverything(t *testing.T) {
	n := NewNetwork(Options{LossRate: 1.0})
	defer n.Close()
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	collect(b, 1)
	for i := 0; i < 10; i++ {
		_ = a.Send("b", 1, 0, []byte("x"))
	}
	waitFor(t, func() bool { return n.Stats().DroppedLoss == 10 }, "loss accounting")
	if n.Stats().Delivered != 0 {
		t.Fatal("lossy network delivered a message")
	}
}

func TestDuplication(t *testing.T) {
	n := NewNetwork(Options{DupRate: 1.0})
	defer n.Close()
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	mu, msgs := collect(b, 1)
	_ = a.Send("b", 1, 0, []byte("x"))
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(*msgs) == 2 }, "duplicate delivery")
	if n.Stats().Duplicated != 1 {
		t.Fatalf("dup stats: %+v", n.Stats())
	}
}

func TestIsolateAndRestore(t *testing.T) {
	n := NewNetwork(Options{})
	defer n.Close()
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	mu, msgs := collect(b, 1)

	n.Isolate("b")
	_ = a.Send("b", 1, 0, []byte("dropped"))
	waitFor(t, func() bool { return n.Stats().DroppedCut == 1 }, "cut accounting")

	n.Restore("b")
	_ = a.Send("b", 1, 0, []byte("arrives"))
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(*msgs) == 1 }, "post-restore delivery")
	mu.Lock()
	defer mu.Unlock()
	if (*msgs)[0] != "arrives" {
		t.Fatalf("wrong message: %v", *msgs)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := NewNetwork(Options{})
	defer n.Close()
	ids := []types.NodeID{"a", "b", "c", "d"}
	eps := make(map[types.NodeID]*Endpoint, len(ids))
	var mu sync.Mutex
	recv := make(map[types.NodeID]int)
	for _, id := range ids {
		id := id
		eps[id] = n.Endpoint(id)
		eps[id].Handle(1, func(from types.NodeID, s uint64, k uint8, p []byte) {
			mu.Lock()
			recv[id]++
			mu.Unlock()
		})
	}
	n.Partition([]types.NodeID{"a", "b"}, []types.NodeID{"c", "d"})

	_ = eps["a"].Send("b", 1, 0, []byte("in-side"))  // should arrive
	_ = eps["a"].Send("c", 1, 0, []byte("cross"))    // blocked
	_ = eps["d"].Send("b", 1, 0, []byte("cross2"))   // blocked
	_ = eps["c"].Send("d", 1, 0, []byte("in-side2")) // should arrive

	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return recv["b"] == 1 && recv["d"] == 1
	}, "in-side deliveries")
	if st := n.Stats(); st.DroppedCut != 2 {
		t.Fatalf("expected 2 cut drops, got %+v", st)
	}

	n.HealAll()
	_ = eps["a"].Send("c", 1, 0, []byte("now"))
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return recv["c"] == 1 }, "post-heal delivery")
}

func TestBlockLinkIsBidirectionalAndReversible(t *testing.T) {
	n := NewNetwork(Options{})
	defer n.Close()
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	muA, msgsA := collect(a, 1)
	muB, msgsB := collect(b, 1)

	n.BlockLink("a", "b")
	_ = a.Send("b", 1, 0, []byte("x"))
	_ = b.Send("a", 1, 0, []byte("y"))
	waitFor(t, func() bool { return n.Stats().DroppedCut == 2 }, "both directions cut")

	n.UnblockLink("b", "a") // reversed arg order must also work
	_ = a.Send("b", 1, 0, []byte("x2"))
	_ = b.Send("a", 1, 0, []byte("y2"))
	waitFor(t, func() bool {
		muA.Lock()
		na := len(*msgsA)
		muA.Unlock()
		muB.Lock()
		nb := len(*msgsB)
		muB.Unlock()
		return na == 1 && nb == 1
	}, "post-unblock delivery")
}

func TestPausedEndpointDropsInboundAndOutbound(t *testing.T) {
	n := NewNetwork(Options{})
	defer n.Close()
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	mu, msgs := collect(b, 1)

	b.Pause()
	_ = a.Send("b", 1, 0, []byte("to-crashed"))
	waitFor(t, func() bool { return n.Stats().DroppedDown == 1 }, "down drop")

	// A paused (crashed) endpoint also must not emit messages.
	a.Pause()
	if err := a.Send("b", 1, 0, []byte("from-crashed")); err != nil {
		t.Fatal(err)
	}
	if got := n.Stats().MessagesSent; got != 1 {
		t.Fatalf("crashed node sent a message: %d", got)
	}

	a.Resume()
	b.Resume()
	if !b.Paused() == false && b.Paused() {
		t.Fatal("resume did not clear paused")
	}
	_ = a.Send("b", 1, 0, []byte("alive"))
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(*msgs) == 1 }, "post-resume delivery")
}

func TestBroadcastSkipsSelf(t *testing.T) {
	n := NewNetwork(Options{})
	defer n.Close()
	ids := []types.NodeID{"a", "b", "c"}
	var count atomic.Int64
	for _, id := range ids {
		ep := n.Endpoint(id)
		ep.Handle(1, func(from types.NodeID, s uint64, k uint8, p []byte) { count.Add(1) })
	}
	n.Endpoint("a").Broadcast(ids, 1, 0, []byte("x"))
	waitFor(t, func() bool { return count.Load() == 2 }, "broadcast to others")
	time.Sleep(5 * time.Millisecond)
	if count.Load() != 2 {
		t.Fatalf("self-delivery happened: %d", count.Load())
	}
}

func TestJitterReordersButDelivers(t *testing.T) {
	n := NewNetwork(Options{Jitter: 2 * time.Millisecond, Seed: 42})
	defer n.Close()
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	mu, msgs := collect(b, 1)
	const total = 200
	for i := 0; i < total; i++ {
		_ = a.Send("b", 1, 0, []byte{byte(i)})
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(*msgs) == total }, "all delivered")
}

func TestCloseIsIdempotentAndStopsSends(t *testing.T) {
	n := NewNetwork(Options{})
	a := n.Endpoint("a")
	n.Endpoint("b")
	n.Close()
	n.Close()
	if err := a.Send("b", 1, 0, nil); err == nil {
		t.Fatal("send after close should fail")
	}
}

func TestEndpointReuse(t *testing.T) {
	n := NewNetwork(Options{})
	defer n.Close()
	e1 := n.Endpoint("a")
	e2 := n.Endpoint("a")
	if e1 != e2 {
		t.Fatal("Endpoint must return the registered instance")
	}
}

func TestHandlerReplaceAndRemove(t *testing.T) {
	n := NewNetwork(Options{})
	defer n.Close()
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	var first, second atomic.Int64
	b.Handle(1, func(types.NodeID, uint64, uint8, []byte) { first.Add(1) })
	b.Handle(1, func(types.NodeID, uint64, uint8, []byte) { second.Add(1) })
	_ = a.Send("b", 1, 0, nil)
	waitFor(t, func() bool { return second.Load() == 1 }, "replaced handler")
	if first.Load() != 0 {
		t.Fatal("old handler still invoked")
	}
	b.Handle(1, nil)
	_ = a.Send("b", 1, 0, nil)
	waitFor(t, func() bool { return n.Stats().DroppedDown == 1 }, "unhandled counted as down")
}

func TestConcurrentSendersStress(t *testing.T) {
	n := NewNetwork(Options{Jitter: 100 * time.Microsecond})
	defer n.Close()
	const senders, per = 8, 100
	dst := n.Endpoint("dst")
	var got atomic.Int64
	dst.Handle(1, func(types.NodeID, uint64, uint8, []byte) { got.Add(1) })
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep := n.Endpoint(types.NodeID(string(rune('a' + s))))
		wg.Add(1)
		go func(e *Endpoint) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = e.Send("dst", 1, 0, []byte("m"))
			}
		}(ep)
	}
	wg.Wait()
	waitFor(t, func() bool { return got.Load() == senders*per }, "all stress messages")
}

func TestLinkLatencyOverride(t *testing.T) {
	slow := 20 * time.Millisecond
	n := NewNetwork(Options{
		LinkLatency: func(from, to types.NodeID) time.Duration {
			if from == "a" && to == "far" {
				return slow
			}
			return 0
		},
	})
	defer n.Close()
	a := n.Endpoint("a")
	var nearAt, farAt atomic.Int64
	n.Endpoint("near").Handle(1, func(types.NodeID, uint64, uint8, []byte) {
		nearAt.Store(time.Now().UnixNano())
	})
	n.Endpoint("far").Handle(1, func(types.NodeID, uint64, uint8, []byte) {
		farAt.Store(time.Now().UnixNano())
	})
	start := time.Now()
	_ = a.Send("far", 1, 0, nil)
	_ = a.Send("near", 1, 0, nil)
	waitFor(t, func() bool { return nearAt.Load() != 0 && farAt.Load() != 0 }, "both deliveries")
	if d := time.Unix(0, farAt.Load()).Sub(start); d < slow {
		t.Fatalf("far link too fast: %v", d)
	}
}
