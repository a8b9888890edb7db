package rpc

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/types"
)

func TestCallResponse(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	srv := NewPeer(net.Endpoint("srv"), 0, func(from types.NodeID, req []byte, respond func([]byte)) {
		respond(append([]byte("echo:"), req...))
	})
	defer srv.Close()
	cli := NewPeer(net.Endpoint("cli"), 0, nil)
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := cli.Call(ctx, "srv", []byte("hi"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "echo:hi" {
		t.Fatalf("resp %q", resp)
	}
}

func TestDeferredResponse(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	srv := NewPeer(net.Endpoint("srv"), 0, func(from types.NodeID, req []byte, respond func([]byte)) {
		go func() {
			time.Sleep(20 * time.Millisecond)
			respond([]byte("late"))
		}()
	})
	defer srv.Close()
	cli := NewPeer(net.Endpoint("cli"), 0, nil)
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := cli.Call(ctx, "srv", nil, 0)
	if err != nil || string(resp) != "late" {
		t.Fatalf("%q %v", resp, err)
	}
}

func TestContextTimeout(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	NewPeer(net.Endpoint("srv"), 0, func(from types.NodeID, req []byte, respond func([]byte)) {
		// never respond
	})
	cli := NewPeer(net.Endpoint("cli"), 0, nil)
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := cli.Call(ctx, "srv", nil, 0)
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v", err)
	}
}

func TestRetransmitSurvivesLoss(t *testing.T) {
	// 60% loss: without retransmission this call would almost surely fail;
	// with it, it should eventually complete.
	net := transport.NewNetwork(transport.Options{LossRate: 0.6, Seed: 3})
	defer net.Close()
	var served atomic.Int64
	srv := NewPeer(net.Endpoint("srv"), 0, func(from types.NodeID, req []byte, respond func([]byte)) {
		served.Add(1)
		respond([]byte("ok"))
	})
	defer srv.Close()
	cli := NewPeer(net.Endpoint("cli"), 0, nil)
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := cli.Call(ctx, "srv", []byte("r"), 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ok" {
		t.Fatalf("resp %q", resp)
	}
}

func TestResponseAfterFirstIgnored(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	srv := NewPeer(net.Endpoint("srv"), 0, func(from types.NodeID, req []byte, respond func([]byte)) {
		respond([]byte("one"))
		respond([]byte("two")) // must be swallowed by sync.Once
	})
	defer srv.Close()
	cli := NewPeer(net.Endpoint("cli"), 0, nil)
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := cli.Call(ctx, "srv", nil, 0)
	if err != nil || string(resp) != "one" {
		t.Fatalf("%q %v", resp, err)
	}
}

func TestCallOnClosedPeer(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	NewPeer(net.Endpoint("srv"), 0, nil)
	cli := NewPeer(net.Endpoint("cli"), 0, nil)
	cli.Close()
	if _, err := cli.Call(context.Background(), "srv", nil, 0); err != ErrClosed {
		t.Fatalf("err = %v", err)
	}
	cli.Close() // idempotent
}

func TestClosePeerFailsPendingCalls(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	NewPeer(net.Endpoint("srv"), 0, func(from types.NodeID, req []byte, respond func([]byte)) {})
	cli := NewPeer(net.Endpoint("cli"), 0, nil)

	errCh := make(chan error, 1)
	go func() {
		_, err := cli.Call(context.Background(), "srv", nil, 0)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cli.Close()
	select {
	case err := <-errCh:
		if err != ErrClosed {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call not released by Close")
	}
}

func TestConcurrentCalls(t *testing.T) {
	net := transport.NewNetwork(transport.Options{Jitter: 300 * time.Microsecond})
	defer net.Close()
	srv := NewPeer(net.Endpoint("srv"), 0, func(from types.NodeID, req []byte, respond func([]byte)) {
		respond(req) // echo
	})
	defer srv.Close()
	cli := NewPeer(net.Endpoint("cli"), 0, nil)
	defer cli.Close()

	const calls = 50
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func(i int) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			resp, err := cli.Call(ctx, "srv", []byte{byte(i)}, 0)
			if err == nil && (len(resp) != 1 || resp[0] != byte(i)) {
				err = ErrClosed
			}
			errs <- err
		}(i)
	}
	for i := 0; i < calls; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestServerSideIdempotencyUnderRetransmit(t *testing.T) {
	// The contract is at-least-once delivery of requests; handlers must be
	// idempotent. Verify a handler sees retransmissions as separate
	// requests (so the layer above must dedup, which sessions do).
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	var served atomic.Int64
	srv := NewPeer(net.Endpoint("srv"), 0, func(from types.NodeID, req []byte, respond func([]byte)) {
		if served.Add(1) >= 3 {
			respond([]byte("done"))
		}
		// The first two are swallowed: never answered, and — the handler runs
		// on the delivering goroutine — not parked on either.
	})
	defer srv.Close()
	cli := NewPeer(net.Endpoint("cli"), 0, nil)
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := cli.Call(ctx, "srv", nil, 5*time.Millisecond)
	if err != nil || string(resp) != "done" {
		t.Fatalf("%q %v", resp, err)
	}
	if served.Load() < 3 {
		t.Fatalf("served %d", served.Load())
	}
}

// CallWithin's one timer serves both clocks: the request is sent again every
// resend interval while the bound has not lapsed, then the call ends with
// context.DeadlineExceeded although the caller's context is still live — on
// both fabrics, so the vectored send is exercised where it copies (TCP) and
// where it joins the pieces (simulated).
func TestCallWithinResendsThenTimesOut(t *testing.T) {
	for name, newNet := range map[string]func(transport.Options) *transport.Network{
		"sim": transport.NewNetwork, "tcp": transport.NewTCPNetwork,
	} {
		t.Run(name, func(t *testing.T) {
			net := newNet(transport.Options{})
			defer net.Close()
			var got atomic.Int64
			srv := NewPeer(net.Endpoint("srv"), 0, func(from types.NodeID, req []byte, respond func([]byte)) {
				if string(req) != "the request" {
					t.Errorf("request arrived as %q", req)
				}
				got.Add(1) // never answers
			})
			defer srv.Close()
			cli := NewPeer(net.Endpoint("cli"), 0, nil)
			defer cli.Close()

			start := time.Now()
			_, err := cli.CallWithin(context.Background(), "srv", []byte("the request"), 10*time.Millisecond, 55*time.Millisecond)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err %v, want context.DeadlineExceeded", err)
			}
			if d := time.Since(start); d < 55*time.Millisecond {
				t.Fatalf("returned after %v, before the bound", d)
			}
			deadline := time.Now().Add(time.Second)
			for got.Load() < 3 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := got.Load(); n < 3 || n > 6 {
				t.Fatalf("the server saw the request %d times in 55 ms at one every 10 ms", n)
			}
		})
	}
}
