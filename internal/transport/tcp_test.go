package transport

import (
	"bufio"
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/types"
)

func TestTCPBasicDelivery(t *testing.T) {
	n := NewTCPNetwork(Options{})
	defer n.Close()
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	mu, msgs := collect(b, 7)

	if err := a.Send("b", 7, 3, []byte("over-tcp")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(*msgs) == 1 }, "tcp delivery")
	mu.Lock()
	if (*msgs)[0] != "over-tcp" {
		t.Fatalf("got %q", (*msgs)[0])
	}
	mu.Unlock()
	st := n.Stats()
	if st.MessagesSent != 1 || st.PerKind[3].Messages != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestTCPOrderingPerSender(t *testing.T) {
	n := NewTCPNetwork(Options{})
	defer n.Close()
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	mu, msgs := collect(b, 1)
	const total = 500
	for i := 0; i < total; i++ {
		if err := a.Send("b", 1, 0, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(*msgs) == total }, "all tcp messages")
	mu.Lock()
	defer mu.Unlock()
	// TCP preserves per-connection ordering.
	for i, m := range *msgs {
		if m[0] != byte(i) || m[1] != byte(i>>8) {
			t.Fatalf("order violated at %d", i)
		}
	}
}

func TestTCPLargePayload(t *testing.T) {
	n := NewTCPNetwork(Options{})
	defer n.Close()
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	var got atomic.Int64
	want := make([]byte, 4<<20) // a 4MB snapshot-sized frame
	for i := range want {
		want[i] = byte(i * 31)
	}
	b.Handle(1, func(from types.NodeID, s uint64, k uint8, p []byte) {
		if bytes.Equal(p, want) {
			got.Store(1)
		} else {
			got.Store(-1)
		}
	})
	if err := a.Send("b", 1, 0, want); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return got.Load() != 0 }, "large frame")
	if got.Load() != 1 {
		t.Fatal("large frame corrupted")
	}
}

func TestTCPFaultInjectionStillApplies(t *testing.T) {
	n := NewTCPNetwork(Options{LossRate: 1.0})
	defer n.Close()
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	collect(b, 1)
	_ = a.Send("b", 1, 0, []byte("x"))
	waitFor(t, func() bool { return n.Stats().DroppedLoss == 1 }, "loss on tcp")

	n2 := NewTCPNetwork(Options{})
	defer n2.Close()
	c := n2.Endpoint("c")
	d := n2.Endpoint("d")
	mu, msgs := collect(d, 1)
	n2.Isolate("d")
	_ = c.Send("d", 1, 0, []byte("cut"))
	waitFor(t, func() bool { return n2.Stats().DroppedCut == 1 }, "cut on tcp")
	n2.Restore("d")
	_ = c.Send("d", 1, 0, []byte("ok"))
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(*msgs) == 1 }, "post-restore tcp delivery")
}

func TestTCPBidirectionalConcurrent(t *testing.T) {
	n := NewTCPNetwork(Options{})
	defer n.Close()
	ids := []types.NodeID{"x", "y", "z"}
	var got atomic.Int64
	for _, id := range ids {
		ep := n.Endpoint(id)
		ep.Handle(1, func(types.NodeID, uint64, uint8, []byte) { got.Add(1) })
	}
	var wg sync.WaitGroup
	const per = 100
	for _, from := range ids {
		from := from
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := n.Endpoint(from)
			for i := 0; i < per; i++ {
				for _, to := range ids {
					if to != from {
						_ = ep.Send(to, 1, 0, []byte("m"))
					}
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, func() bool { return got.Load() == int64(len(ids)*(len(ids)-1)*per) }, "all cross traffic")
}

func TestTCPCloseIsClean(t *testing.T) {
	n := NewTCPNetwork(Options{})
	a := n.Endpoint("a")
	n.Endpoint("b")
	_ = a.Send("b", 1, 0, []byte("x"))
	n.Close()
	n.Close() // idempotent
	if err := a.Send("b", 1, 0, nil); err == nil {
		t.Fatal("send after close succeeded")
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(from string, group, stream uint64, kind uint8, payload []byte) bool {
		if from == "" {
			from = "n" // node IDs are never empty
		}
		if len(from) > 4096 {
			from = from[:4096]
		}
		roundTrip := func(group uint64) bool {
			frame := appendFrame(nil, types.NodeID(from), group, stream, kind, nil, payload)
			gf, gg, gs, gk, gp, err := decodeFrame(bufio.NewReader(bytes.NewReader(frame)), "")
			return err == nil && gf == types.NodeID(from) && gg == group && gs == stream && gk == kind && bytes.Equal(gp, payload)
		}
		return roundTrip(group) && roundTrip(0) // group 0, the root, every time
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameDecodeRejectsGarbage(t *testing.T) {
	for _, group := range []uint64{0, 9} {
		frame := appendFrame(nil, "n1", group, 3, 2, nil, []byte("hello"))
		for i := 0; i < len(frame); i++ {
			if _, _, _, _, _, err := decodeFrame(bufio.NewReader(bytes.NewReader(frame[:i])), ""); err == nil {
				t.Fatalf("truncated frame (group %d) at %d accepted", group, i)
			}
		}
	}
	// Absurd payload length must be rejected, not allocated.
	bad := appendFrame(nil, "n1", 0, 1, 1, nil, nil)
	bad = bad[:len(bad)-1] // strip the zero payload length
	bad = append(bad, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	if _, _, _, _, _, err := decodeFrame(bufio.NewReader(bytes.NewReader(bad)), ""); err == nil {
		t.Fatal("absurd length accepted")
	}
}

func TestTCPRedialAfterPeerConnDrop(t *testing.T) {
	n := NewTCPNetwork(Options{})
	defer n.Close()
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	mu, msgs := collect(b, 1)
	_ = a.Send("b", 1, 0, []byte("first"))
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(*msgs) == 1 }, "first tcp delivery")

	// Force-close the cached outbound conn; the next send must redial
	// (the first attempt may be swallowed as loss, like a dropped packet).
	n.tcp.mu.Lock()
	oc := n.tcp.conns[connKey{from: "a", to: "b"}]
	n.tcp.mu.Unlock()
	if oc == nil {
		t.Fatal("no cached conn")
	}
	oc.mu.Lock()
	conn := oc.conn
	oc.mu.Unlock()
	_ = conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		_ = a.Send("b", 1, 0, []byte("second"))
		mu.Lock()
		done := len(*msgs) >= 2
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("redial never delivered")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPStuckPeerCostsOnlyItsOwnFrames is the regression test for the send
// path's drop-not-block contract. One destination stops reading, so the
// kernel's socket buffers to it fill. Sends to it must overflow into
// DroppedBusy instead of blocking, traffic between the other endpoints must
// keep flowing in both directions, and Close must return. When send wrote to
// the socket under Network.mu, the first full buffer hung every sender and
// every readLoop in the process.
func TestTCPStuckPeerCostsOnlyItsOwnFrames(t *testing.T) {
	n := NewTCPNetwork(Options{})
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	n.Endpoint("stuck").Pause()

	// Repoint the paused endpoint's address at a listener whose connections
	// are accepted and never read.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	held := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			held <- c
		}
	}()
	defer func() {
		select {
		case c := <-held:
			_ = c.Close()
		default:
		}
	}()
	n.tcp.mu.Lock()
	n.tcp.addrs["stuck"] = ln.Addr().String()
	n.tcp.mu.Unlock()

	within := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			fn()
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s blocked", what)
		}
	}

	chunk := make([]byte, 256<<10)
	within("sending to the stuck peer", func() {
		for n.Stats().DroppedBusy == 0 {
			_ = a.Send("stuck", 1, 0, chunk)
		}
	})

	var atA, atB atomic.Int64
	a.Handle(1, func(types.NodeID, uint64, uint8, []byte) { atA.Add(1) })
	b.Handle(1, func(types.NodeID, uint64, uint8, []byte) { atB.Add(1) })
	const total = 200
	within("sending past the stuck peer", func() {
		for i := 0; i < total; i++ {
			_ = a.Send("b", 1, 0, []byte("ab"))
			_ = b.Send("a", 1, 0, []byte("ba"))
			_ = a.Send("stuck", 1, 0, chunk)
		}
	})
	waitFor(t, func() bool { return atA.Load() == total && atB.Load() == total }, "traffic between the healthy endpoints")
	if st := n.Stats(); st.DroppedBusy < total {
		t.Fatalf("DroppedBusy = %d, want the %d frames sent to the full connection", st.DroppedBusy, total)
	}
	within("Network.Close", n.Close)
}
