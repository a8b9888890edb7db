// Package transport provides the message substrate the replication stack
// runs on: an in-memory simulated network with per-link latency, jitter,
// loss, duplication, pairwise partitions and node isolation.
//
// The simulator preserves the properties consensus protocols are sensitive
// to — asynchrony, reordering (via jitter), message loss, and partitions —
// while keeping runs laptop-scale and seed-reproducible. It also keeps
// per-message-kind counters so tests and the benchmark can report message
// and byte complexity.
//
// Every process in the system (replica or client) owns an Endpoint. Messages
// are addressed (stream, kind, payload): stream demultiplexes independent
// protocol instances sharing one endpoint (e.g. one static Paxos engine per
// configuration), kind classifies the message for accounting.
package transport

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/types"
)

// Handler consumes an inbound message. It runs on the goroutine that read the
// frame: on the TCP fabric the reader of the connection it arrived on, on the
// simulated fabric the endpoint's dispatch goroutine. The contract is the
// same on both:
//
//   - frames from one source arrive in the order the fabric delivered them
//     (FIFO per connection on TCP), and the next one is not read until the
//     handler returns;
//   - handlers for frames from different sources may run concurrently, so a
//     handler synchronizes whatever it shares;
//   - a handler must not wait on the network, nor on anything that does — a
//     parked handler stalls every frame behind it on that connection. Hand
//     the message to a queue or take a short mutex; work that may wait gets
//     its own goroutine.
type Handler func(from types.NodeID, stream uint64, kind uint8, payload []byte)

// Options configures a Network. The zero value is usable: zero latency, no
// loss, seed 0.
type Options struct {
	// BaseLatency is the fixed one-way delivery delay applied to every
	// message.
	BaseLatency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) per message,
	// which also induces reordering.
	Jitter time.Duration
	// LossRate is the probability in [0,1] that a message is silently
	// dropped.
	LossRate float64
	// DupRate is the probability in [0,1] that a message is delivered
	// twice (the duplicate gets independent latency).
	DupRate float64
	// Seed seeds the network's RNG for reproducible loss/jitter.
	Seed int64
	// LinkLatency, if non-nil, overrides BaseLatency per link.
	LinkLatency func(from, to types.NodeID) time.Duration
}

// Stats aggregates network-level accounting. Values are monotonically
// increasing for the life of the network.
type Stats struct {
	MessagesSent int64
	BytesSent    int64
	Delivered    int64
	DroppedLoss  int64 // dropped by the loss model
	DroppedCut   int64 // dropped by partition/isolation
	DroppedBusy  int64 // dropped because the inbox, or a TCP connection's send queue, was full
	DroppedDown  int64 // dropped because the endpoint was paused or closed
	Duplicated   int64
	PerKind      map[uint8]KindStats
}

// KindStats counts traffic for one message kind.
type KindStats struct {
	Messages int64
	Bytes    int64
}

// ErrClosed is returned by operations on a closed network or endpoint.
var ErrClosed = errors.New("transport: closed")

// ErrUnknownNode is returned when sending to an unregistered node.
var ErrUnknownNode = errors.New("transport: unknown node")

type delivery struct {
	at      time.Time
	seq     uint64 // tie-break for deterministic heap order
	from    types.NodeID
	to      types.NodeID
	group   uint64
	stream  uint64
	kind    uint8
	payload []byte
}

type deliveryHeap []*delivery

func (h deliveryHeap) Len() int { return len(h) }
func (h deliveryHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h deliveryHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *deliveryHeap) Push(x any)   { *h = append(*h, x.(*delivery)) }
func (h *deliveryHeap) Pop() any {
	old := *h
	n := len(old)
	d := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return d
}

// Network is the simulated fabric connecting a set of endpoints.
type Network struct {
	opts Options

	mu       sync.Mutex
	rng      *rand.Rand
	eps      map[types.NodeID]*Endpoint
	queue    deliveryHeap
	seq      uint64
	blocked  map[[2]types.NodeID]bool // unordered pair, stored with lower id first
	isolated map[types.NodeID]bool
	stats    Stats
	closed   bool

	wake chan struct{}
	done chan struct{}
	wg   sync.WaitGroup

	// tcp, when non-nil, carries deliveries over real loopback sockets
	// instead of the in-memory scheduler (see NewTCPNetwork). The fault
	// model (loss, cuts, duplication) still applies before transmission.
	tcp *tcpFabric
}

// NewNetwork creates a network and starts its delivery scheduler.
func NewNetwork(opts Options) *Network {
	n := &Network{
		opts:     opts,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		eps:      make(map[types.NodeID]*Endpoint),
		blocked:  make(map[[2]types.NodeID]bool),
		isolated: make(map[types.NodeID]bool),
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	n.stats.PerKind = make(map[uint8]KindStats)
	n.wg.Add(1)
	go n.run()
	return n
}

// Close stops the scheduler, the endpoint dispatchers and the TCP fabric's
// readers and flushers. Pending messages are discarded. Close is idempotent.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	eps := make([]*Endpoint, 0, len(n.eps))
	for _, e := range n.eps {
		eps = append(eps, e)
	}
	tcp := n.tcp
	n.mu.Unlock()
	close(n.done)
	if tcp != nil {
		tcp.close()
	}
	for _, e := range eps {
		e.close()
	}
	n.wg.Wait()
}

// inboxSize bounds each endpoint's inbound queue on the simulated fabric;
// messages beyond it are dropped (and counted). The TCP fabric has no inbox:
// the socket buffers are the queue.
const inboxSize = 4096

// Endpoint registers (or returns the existing) endpoint for id.
func (n *Network) Endpoint(id types.NodeID) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if e, ok := n.eps[id]; ok {
		return e
	}
	e := &Endpoint{id: id, net: n, quit: make(chan struct{})}
	n.eps[id] = e
	if n.tcp != nil {
		// No inbox and no dispatcher: each connection's reader delivers.
		if err := n.tcp.listenFor(e); err != nil {
			// Listener failure leaves the endpoint unreachable; count
			// sends to it as down.
			n.stats.DroppedDown++
		}
		return e
	}
	e.inbox = make(chan *delivery, inboxSize)
	n.wg.Add(1)
	go e.dispatch(&n.wg)
	return e
}

// Stats returns a snapshot of the accounting counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.stats
	out.PerKind = make(map[uint8]KindStats, len(n.stats.PerKind))
	for k, v := range n.stats.PerKind {
		out.PerKind[k] = v
	}
	return out
}

func pairKey(a, b types.NodeID) [2]types.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]types.NodeID{a, b}
}

// BlockLink cuts the bidirectional link between a and b.
func (n *Network) BlockLink(a, b types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[pairKey(a, b)] = true
}

// UnblockLink restores the link between a and b.
func (n *Network) UnblockLink(a, b types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, pairKey(a, b))
}

// Isolate cuts every link of id (messages to and from id are dropped).
func (n *Network) Isolate(id types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.isolated[id] = true
}

// Restore undoes Isolate for id.
func (n *Network) Restore(id types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.isolated, id)
}

// Partition blocks every link that crosses between two of the given sides.
// Links within a side are untouched.
func (n *Network) Partition(sides ...[]types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := 0; i < len(sides); i++ {
		for j := i + 1; j < len(sides); j++ {
			for _, a := range sides[i] {
				for _, b := range sides[j] {
					n.blocked[pairKey(a, b)] = true
				}
			}
		}
	}
}

// HealAll removes all link blocks and isolations.
func (n *Network) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked = make(map[[2]types.NodeID]bool)
	n.isolated = make(map[types.NodeID]bool)
}

func (n *Network) cut(a, b types.NodeID) bool {
	return n.isolated[a] || n.isolated[b] || n.blocked[pairKey(a, b)]
}

// send is called by endpoints; it applies the fault model and enqueues
// deliveries.
func (n *Network) send(from, to types.NodeID, group, stream uint64, kind uint8, head, body []byte) error {
	copies, err := n.admit(from, to, group, stream, kind, head, body)
	// The accounting and the fault model needed n.mu; the TCP fabric has its
	// own locks. Held across transmit, n.mu would queue every sender in the
	// process, and the delivery accounting, behind one connection.
	for i := 0; i < copies; i++ {
		n.tcp.transmit(from, to, group, stream, kind, head, body)
	}
	return err
}

// admit is the part of send that runs under n.mu: accounting, the fault
// model, and on the simulated fabric the scheduling itself. It returns how
// many copies of the frame the caller must hand to the TCP fabric, 0 when the
// frame was dropped or has already been scheduled. The payload is head
// followed by body (see SendParts).
func (n *Network) admit(from, to types.NodeID, group, stream uint64, kind uint8, head, body []byte) (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return 0, ErrClosed
	}
	if _, ok := n.eps[to]; !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownNode, to)
	}

	size := int64(len(head) + len(body))
	n.stats.MessagesSent++
	n.stats.BytesSent += size
	ks := n.stats.PerKind[kind]
	ks.Messages++
	ks.Bytes += size
	n.stats.PerKind[kind] = ks

	if n.cut(from, to) {
		n.stats.DroppedCut++
		return 0, nil // silently dropped, like a real partition
	}
	if n.opts.LossRate > 0 && n.rng.Float64() < n.opts.LossRate {
		n.stats.DroppedLoss++
		return 0, nil
	}
	copies := 1
	if n.opts.DupRate > 0 && n.rng.Float64() < n.opts.DupRate {
		copies = 2
		n.stats.Duplicated++
	}
	if n.tcp != nil {
		return copies, nil
	}
	// The simulated fabric keeps what it is sent: every receiver's handler is
	// given this slice itself. Two pieces are joined once, here, into a buffer
	// that is the fabric's own.
	payload := body
	if len(head) > 0 {
		payload = append(append(make([]byte, 0, size), head...), body...)
	}
	now := time.Now()
	for i := 0; i < copies; i++ {
		lat := n.opts.BaseLatency
		if n.opts.LinkLatency != nil {
			lat = n.opts.LinkLatency(from, to)
		}
		if n.opts.Jitter > 0 {
			lat += time.Duration(n.rng.Int63n(int64(n.opts.Jitter)))
		}
		n.seq++
		heap.Push(&n.queue, &delivery{
			at:      now.Add(lat),
			seq:     n.seq,
			from:    from,
			to:      to,
			group:   group,
			stream:  stream,
			kind:    kind,
			payload: payload,
		})
	}
	select {
	case n.wake <- struct{}{}:
	default:
	}
	return 0, nil
}

// run is the scheduler loop: it sleeps until the earliest delivery is due,
// then hands it to the destination endpoint's inbox.
func (n *Network) run() {
	defer n.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		n.mu.Lock()
		var next *delivery
		var wait time.Duration
		now := time.Now()
		for n.queue.Len() > 0 {
			head := n.queue[0]
			if head.at.After(now) {
				wait = head.at.Sub(now)
				break
			}
			next = heap.Pop(&n.queue).(*delivery)
			break
		}
		var ep *Endpoint
		if next != nil {
			ep = n.eps[next.to]
		}
		n.mu.Unlock()

		if next != nil {
			if ep == nil {
				continue
			}
			if !ep.enqueue(next) {
				n.countDroppedBusy()
			}
			continue
		}

		if wait <= 0 {
			wait = time.Hour
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-n.done:
			return
		case <-n.wake:
		case <-timer.C:
		}
	}
}

func (n *Network) countDroppedBusy() {
	n.mu.Lock()
	n.stats.DroppedBusy++
	n.mu.Unlock()
}

func (n *Network) recordDelivered(down bool) {
	n.mu.Lock()
	if down {
		n.stats.DroppedDown++
	} else {
		n.stats.Delivered++
	}
	n.mu.Unlock()
}

// Endpoint is one process's attachment to the network.
//
// An endpoint is either a root (one per registered node, owning the listener
// or, on the simulated fabric, the inbox and dispatch goroutine) or a group
// view derived from a root via Group. A group view shares the root's identity,
// socket, inbox and pause state but has its own stream→handler registry, so N
// independent protocol stacks (RSM groups) can multiplex over one process
// attachment without coordinating stream IDs.
type Endpoint struct {
	id  types.NodeID
	net *Network

	// root is nil on the root endpoint itself; group views point back so
	// Send/Pause/close consult the shared process state.
	root  *Endpoint
	group uint64

	mu       sync.Mutex
	handlers map[uint64]Handler // per stream
	catchAll Handler
	paused   bool
	closed   bool
	groups   map[uint64]*Endpoint // root only: derived group views

	inbox chan *delivery // simulated fabric only; nil on TCP
	quit  chan struct{}
	once  sync.Once
}

// ID returns the endpoint's node ID.
func (e *Endpoint) ID() types.NodeID { return e.id }

// GroupID returns the group this endpoint view is scoped to (0 for the root).
func (e *Endpoint) GroupID() uint64 { return e.group }

// Group returns the endpoint view scoped to group gid. Handlers registered on
// the view only see traffic sent by the matching view on a peer; all views of
// a node share the root's single socket/inbox so a burst across groups still
// coalesces into the same TCP writes. Group 0 is the root endpoint itself —
// ungrouped (legacy) traffic is literally group 0.
func (e *Endpoint) Group(gid uint64) *Endpoint {
	root := e.rootEndpoint()
	if gid == 0 {
		return root
	}
	root.mu.Lock()
	defer root.mu.Unlock()
	if root.groups == nil {
		root.groups = make(map[uint64]*Endpoint)
	}
	if g, ok := root.groups[gid]; ok {
		return g
	}
	g := &Endpoint{id: root.id, net: root.net, root: root, group: gid}
	root.groups[gid] = g
	return g
}

// DropGroup discards the view for gid and its handlers; subsequent traffic
// for that group is counted as undeliverable. No-op for group 0.
func (e *Endpoint) DropGroup(gid uint64) {
	if gid == 0 {
		return
	}
	root := e.rootEndpoint()
	root.mu.Lock()
	defer root.mu.Unlock()
	delete(root.groups, gid)
}

func (e *Endpoint) rootEndpoint() *Endpoint {
	if e.root != nil {
		return e.root
	}
	return e
}

// Handle registers h for messages on the given stream, replacing any
// previous handler. A nil h unregisters the stream.
func (e *Endpoint) Handle(stream uint64, h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.handlers == nil {
		e.handlers = make(map[uint64]Handler)
	}
	if h == nil {
		delete(e.handlers, stream)
		return
	}
	e.handlers[stream] = h
}

// HandleAll registers a catch-all handler invoked for streams with no
// specific handler.
func (e *Endpoint) HandleAll(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.catchAll = h
}

// Pause makes the endpoint drop all inbound messages, modeling a crashed
// process that is still addressable. Pause state is process-wide: pausing any
// group view pauses the root and every other view.
func (e *Endpoint) Pause() {
	root := e.rootEndpoint()
	root.mu.Lock()
	defer root.mu.Unlock()
	root.paused = true
}

// Resume undoes Pause.
func (e *Endpoint) Resume() {
	root := e.rootEndpoint()
	root.mu.Lock()
	defer root.mu.Unlock()
	root.paused = false
}

// Paused reports whether the endpoint is currently dropping inbound traffic.
func (e *Endpoint) Paused() bool {
	root := e.rootEndpoint()
	root.mu.Lock()
	defer root.mu.Unlock()
	return root.paused
}

// Send transmits payload to the given node, addressed to the same group view
// on the receiving side. It never blocks on the receiver; delivery is
// asynchronous and may silently fail per the fault model.
//
// The payload is handed over: the caller must not modify it afterwards (it may
// keep reading it, send it again, or give it to a store). The TCP fabric
// copies it into the connection's queue; the simulated fabric delivers the
// slice itself, to every receiver it is sent to, and a handler must likewise
// leave what it is given unmodified.
func (e *Endpoint) Send(to types.NodeID, stream uint64, kind uint8, payload []byte) error {
	return e.SendParts(to, stream, kind, nil, payload)
}

// SendParts is Send for a payload in two pieces, head followed by body: a
// header the caller has just built in front of bytes it already holds. The
// receiver sees one payload. On the TCP fabric both pieces go straight into
// the connection's queue, so wrapping a request costs no buffer of its own;
// head is never kept by either fabric and may live on the caller's stack.
func (e *Endpoint) SendParts(to types.NodeID, stream uint64, kind uint8, head, body []byte) error {
	root := e.rootEndpoint()
	root.mu.Lock()
	if root.closed {
		root.mu.Unlock()
		return ErrClosed
	}
	paused := root.paused
	root.mu.Unlock()
	if paused {
		return nil // a crashed process sends nothing; drop silently
	}
	return root.net.send(root.id, to, e.group, stream, kind, head, body)
}

// Broadcast sends payload to every node in targets (skipping self).
func (e *Endpoint) Broadcast(targets []types.NodeID, stream uint64, kind uint8, payload []byte) {
	for _, t := range targets {
		if t == e.id {
			continue
		}
		_ = e.Send(t, stream, kind, payload) // best-effort fan-out
	}
}

func (e *Endpoint) enqueue(d *delivery) bool {
	select {
	case e.inbox <- d:
		return true
	case <-e.quit:
		return true // closing; swallow
	default:
		return false
	}
}

// dispatch is the simulated fabric's delivery goroutine: the scheduler only
// queues (it must not run handlers, one slow handler would hold up every
// endpoint's timers), and this drains the inbox into deliver.
func (e *Endpoint) dispatch(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case <-e.quit:
			return
		case d := <-e.inbox:
			e.deliver(d.from, d.group, d.stream, d.kind, d.payload)
		}
	}
}

// deliver is the last step of every inbound frame on both fabrics: find the
// handler for (group, stream), account the frame as delivered — or as dropped
// when the process is paused or closed, or nobody listens — and run the
// handler on the calling goroutine. e is the root endpoint.
func (e *Endpoint) deliver(from types.NodeID, group, stream uint64, kind uint8, payload []byte) {
	e.mu.Lock()
	target := e
	if group != 0 {
		target = e.groups[group] // nil if no such group view
	}
	down := e.paused || e.closed
	var h Handler
	if target == e {
		h = e.handlers[stream]
		if h == nil {
			h = e.catchAll
		}
	}
	e.mu.Unlock()
	if target != nil && target != e {
		target.mu.Lock()
		h = target.handlers[stream]
		if h == nil {
			h = target.catchAll
		}
		target.mu.Unlock()
	}
	down = down || h == nil
	e.net.recordDelivered(down)
	if !down {
		h(from, stream, kind, payload)
	}
}

func (e *Endpoint) close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.once.Do(func() { close(e.quit) })
}
