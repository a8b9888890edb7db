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
