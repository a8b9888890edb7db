package transport

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/types"
)

// Endpoint.deliver is the one place both fabrics look the handler up, honour
// pause and close and account the frame, whether the caller is the simulated
// fabric's dispatcher or a TCP connection's reader. One table over both.
func TestDeliverDropsAndCountsOnBothFabrics(t *testing.T) {
	fabrics := []struct {
		name string
		mk   func(Options) *Network
	}{
		{"simulated", NewNetwork},
		{"tcp", NewTCPNetwork},
	}
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			n := f.mk(Options{})
			defer n.Close()
			a, b := n.Endpoint("a"), n.Endpoint("b")
			var handled atomic.Int64
			b.Handle(1, func(types.NodeID, uint64, uint8, []byte) { handled.Add(1) })

			steps := []struct {
				what          string
				do            func()
				sends         int
				delivered     int64 // totals after the step
				down, handler int64
			}{
				{"live", func() {}, 1, 1, 0, 1},
				{"paused", b.Pause, 3, 1, 3, 1},
				{"resumed", b.Resume, 2, 3, 3, 3},
				{"no handler", func() { b.Handle(1, nil) }, 1, 3, 4, 3},
			}
			for _, s := range steps {
				s.do()
				for i := 0; i < s.sends; i++ {
					if err := a.Send("b", 1, 0, []byte("x")); err != nil {
						t.Fatalf("%s: %v", s.what, err)
					}
				}
				waitFor(t, func() bool {
					st := n.Stats()
					return st.Delivered == s.delivered && st.DroppedDown == s.down
				}, s.what+": delivered/dropped counts")
				if got := handled.Load(); got != s.handler {
					t.Fatalf("%s: handler ran %d times, want %d", s.what, got, s.handler)
				}
			}

			// A frame still in flight when the endpoint closes is dropped and
			// counted by whoever was carrying it.
			b.Handle(1, func(types.NodeID, uint64, uint8, []byte) { handled.Add(1) })
			b.close()
			b.deliver("a", 0, 1, 0, []byte("late"))
			if st := n.Stats(); st.DroppedDown != 5 || st.Delivered != 3 || handled.Load() != 3 {
				t.Fatalf("after close: %+v, handler ran %d times", st, handled.Load())
			}
		})
	}
}

// On the TCP fabric a handler runs on its connection's reader: a handler
// parked on one connection holds up that connection's frames, in order, and
// nobody else's.
func TestTCPParkedHandlerDelaysOnlyItsConnection(t *testing.T) {
	n := NewTCPNetwork(Options{})
	defer n.Close()
	slow, fast, dst := n.Endpoint("slow"), n.Endpoint("fast"), n.Endpoint("dst")

	entered, gate := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // a failing run must not leave the reader parked under Close
	var fromFast atomic.Int64
	var mu sync.Mutex
	var fromSlow []byte
	dst.Handle(1, func(from types.NodeID, _ uint64, _ uint8, p []byte) {
		if from == "fast" {
			fromFast.Add(1)
			return
		}
		if p[0] == 0 {
			close(entered)
			<-gate
		}
		mu.Lock()
		fromSlow = append(fromSlow, p[0])
		mu.Unlock()
	})

	for i := byte(0); i < 3; i++ {
		if err := slow.Send("dst", 1, 0, []byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	<-entered
	const k = 50
	for i := 0; i < k; i++ {
		if err := fast.Send("dst", 1, 0, []byte{9}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return fromFast.Load() == k }, "the other connection's frames while one handler is parked")
	mu.Lock()
	if len(fromSlow) != 0 {
		t.Fatalf("frames %v overtook the parked handler on their own connection", fromSlow)
	}
	mu.Unlock()
	release()
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(fromSlow) == 3 }, "the parked connection's frames")
	mu.Lock()
	defer mu.Unlock()
	for i, v := range fromSlow {
		if v != byte(i) {
			t.Fatalf("parked connection delivered %v, want FIFO", fromSlow)
		}
	}
}

// SendParts is one payload to the receiver and to the accounting, on both
// fabrics, and keeps neither piece: the simulated fabric, which delivers the
// slice it is sent, joins the two into a buffer of its own, so the sender may
// reuse head at once.
func TestSendPartsIsOnePayload(t *testing.T) {
	for name, mk := range map[string]func(Options) *Network{"simulated": NewNetwork, "tcp": NewTCPNetwork} {
		t.Run(name, func(t *testing.T) {
			n := mk(Options{})
			defer n.Close()
			a, b := n.Endpoint("a"), n.Endpoint("b")
			got := make(chan []byte, 2)
			b.Handle(1, func(_ types.NodeID, _ uint64, _ uint8, payload []byte) { got <- payload })

			head, body := []byte("head|"), []byte("body")
			if err := a.SendParts("b", 1, 7, head, body); err != nil {
				t.Fatal(err)
			}
			copy(head, "XXXXX")
			if err := a.Send("b", 1, 7, body); err != nil {
				t.Fatal(err)
			}
			if p := <-got; string(p) != "head|body" {
				t.Fatalf("two pieces arrived as %q", p)
			}
			if p := <-got; string(p) != "body" {
				t.Fatalf("one piece arrived as %q", p)
			}
			if st := n.Stats(); st.MessagesSent != 2 || st.BytesSent != 13 || st.PerKind[7].Bytes != 13 {
				t.Fatalf("accounted %d messages, %d bytes (%d of kind 7), want 2, 13, 13", st.MessagesSent, st.BytesSent, st.PerKind[7].Bytes)
			}
		})
	}
}
