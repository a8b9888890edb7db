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
	"errors"
	"sync"
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
// from any goroutine, now or later; extra calls are ignored.
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

func (p *Peer) onMessage(from types.NodeID, _ uint64, kind uint8, payload []byte) {
	r := types.NewReader(payload)
	id := r.Uvarint()
	body := r.BytesField()
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
		var once sync.Once
		respond := func(resp []byte) {
			once.Do(func() {
				w := types.NewWriter(16 + len(resp))
				w.Uvarint(id)
				w.BytesField(resp)
				_ = p.ep.Send(from, p.stream, KindResponse, w.Bytes())
			})
		}
		h(from, body, respond)
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
// done. Handlers must therefore be idempotent.
func (p *Peer) Call(ctx context.Context, to types.NodeID, req []byte, resend time.Duration) ([]byte, error) {
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

	w := types.NewWriter(16 + len(req))
	w.Uvarint(id)
	w.BytesField(req)
	wire := w.Bytes()
	if err := p.ep.Send(to, p.stream, KindRequest, wire); err != nil {
		return nil, err
	}

	var resendC <-chan time.Time
	if resend > 0 {
		t := time.NewTicker(resend)
		defer t.Stop()
		resendC = t.C
	}
	for {
		select {
		case resp, ok := <-ch:
			if !ok {
				return nil, ErrClosed
			}
			return resp, nil
		case <-resendC:
			if err := p.ep.Send(to, p.stream, KindRequest, wire); err != nil {
				return nil, err
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
