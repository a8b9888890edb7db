// Package rpc layers a minimal request/response protocol over the transport:
// request IDs, response matching, retransmission and context cancellation.
// The control plane of the reconfigurable SMR (client submits, configuration
// discovery, state transfer) runs on it.
//
// A Peer is both client and server on one (endpoint, stream) pair. Handlers
// may respond asynchronously — a submit RPC is answered only when the command
// has been applied — by retaining the respond callback.
package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/types"
)

// Message kinds used on the wire, visible in transport accounting.
const (
	// KindRequest tags RPC requests.
	KindRequest uint8 = 32
	// KindResponse tags RPC responses.
	KindResponse uint8 = 33
)

// ErrClosed is returned by calls on a closed peer.
var ErrClosed = errors.New("rpc: peer closed")

// Handler serves one inbound request. respond may be called at most once,
// from any goroutine, now or later; extra calls are ignored. req is a view of
// the frame it arrived in and resp is handed to the transport: neither may be
// modified, by either side, once it has changed hands.
//
// The handler runs on the goroutine that delivered the request (see
// transport.Handler), so requests from one peer arrive in the order it sent
// them and the next is not read until the handler returns. A handler that may
// wait — on a commit, on the store, on another call — must start its own
// goroutine and keep respond; one that only queues the request answers the
// same way later.
type Handler func(from types.NodeID, req []byte, respond func(resp []byte))

// Peer is an RPC endpoint (client and server) bound to a transport stream.
type Peer struct {
	ep     *transport.Endpoint
	stream uint64

	mu      sync.Mutex
	nextID  uint64
	waiters map[uint64]chan []byte
	handler Handler
	closed  bool
}

// NewPeer binds a peer to ep on the given stream. handler may be nil for a
// client-only peer.
func NewPeer(ep *transport.Endpoint, stream uint64, handler Handler) *Peer {
	p := &Peer{
		ep:      ep,
		stream:  stream,
		waiters: make(map[uint64]chan []byte),
		handler: handler,
	}
	ep.Handle(stream, p.onMessage)
	return p
}

// Close detaches the peer from the transport and fails pending calls.
func (p *Peer) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	waiters := p.waiters
	p.waiters = make(map[uint64]chan []byte)
	p.mu.Unlock()
	p.ep.Handle(p.stream, nil)
	for _, ch := range waiters {
		close(ch)
	}
}

// wrap renders into buf what precedes the body in the wire form of both kinds,
// id|len(body)|body, for a vectored send that leaves the body where it is.
func wrap(buf *[2 * binary.MaxVarintLen64]byte, id uint64, body []byte) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(buf[:0], id), uint64(len(body)))
}

// responder answers one request, once.
type responder struct {
	p    *Peer
	to   types.NodeID
	id   uint64
	done atomic.Bool
}

func (r *responder) respond(resp []byte) {
	if r.done.Swap(true) {
		return
	}
	var buf [2 * binary.MaxVarintLen64]byte
	_ = r.p.ep.SendParts(r.to, r.p.stream, KindResponse, wrap(&buf, r.id, resp), resp)
}

func (p *Peer) onMessage(from types.NodeID, _ uint64, kind uint8, payload []byte) {
	r := types.NewReader(payload)
	id := r.Uvarint()
	body := r.BytesView()
	if r.Err() != nil {
		return
	}
	switch kind {
	case KindRequest:
		p.mu.Lock()
		h := p.handler
		closed := p.closed
		p.mu.Unlock()
		if h == nil || closed {
			return
		}
		h(from, body, (&responder{p: p, to: from, id: id}).respond)
	case KindResponse:
		p.mu.Lock()
		ch, ok := p.waiters[id]
		if ok {
			delete(p.waiters, id)
		}
		p.mu.Unlock()
		if ok {
			ch <- body // buffered; never blocks
		}
	}
}

// Call sends req to the peer at `to` and waits for the response. The request
// is retransmitted every resend interval (0 disables) until the context is
// done. Handlers must therefore be idempotent. req is handed over: it is sent
// from where it lies, again on every retransmission, and must not be modified
// until Call returns.
func (p *Peer) Call(ctx context.Context, to types.NodeID, req []byte, resend time.Duration) ([]byte, error) {
	return p.CallWithin(ctx, to, req, resend, 0)
}

// CallWithin is Call with a bound of its own: past timeout (0 means none) it
// returns context.DeadlineExceeded. One timer serves the bound and the
// retransmissions, armed for whichever comes first, so a caller that bounds
// every attempt needs no derived context per attempt.
func (p *Peer) CallWithin(ctx context.Context, to types.NodeID, req []byte, resend, timeout time.Duration) ([]byte, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	p.nextID++
	id := p.nextID
	ch := make(chan []byte, 1)
	p.waiters[id] = ch
	p.mu.Unlock()

	defer func() {
		p.mu.Lock()
		delete(p.waiters, id)
		p.mu.Unlock()
	}()

	var buf [2 * binary.MaxVarintLen64]byte
	head := wrap(&buf, id, req)
	if err := p.ep.SendParts(to, p.stream, KindRequest, head, req); err != nil {
		return nil, err
	}

	// Both clocks run from start: the next retransmission is due at
	// nextResend, the call is over at timeout; never stands for "not set".
	const never = time.Duration(math.MaxInt64)
	start := time.Now()
	nextResend := resend
	if resend <= 0 {
		nextResend = never
	}
	if timeout <= 0 {
		timeout = never
	}
	var timerC <-chan time.Time
	var timer *time.Timer
	if first := min(nextResend, timeout); first != never {
		timer = time.NewTimer(first)
		defer timer.Stop()
		timerC = timer.C
	}
	for {
		select {
		case resp, ok := <-ch:
			if !ok {
				return nil, ErrClosed
			}
			return resp, nil
		case <-timerC:
			elapsed := time.Since(start)
			if elapsed >= timeout {
				return nil, context.DeadlineExceeded
			}
			if elapsed >= nextResend {
				if err := p.ep.SendParts(to, p.stream, KindRequest, head, req); err != nil {
					return nil, err
				}
				nextResend = elapsed + resend
			}
			timer.Reset(min(nextResend, timeout) - elapsed)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
