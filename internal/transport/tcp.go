package transport

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync"

	"repro/internal/types"
)

// NewTCPNetwork creates a Network whose deliveries travel over real loopback
// TCP sockets instead of the in-memory scheduler. Everything else is
// unchanged: the same Endpoint API, the same per-kind accounting, and the
// same fault injection (loss, duplication, partitions and isolation are
// applied before a frame reaches the wire; latency and reordering come from
// the real kernel network stack).
//
// All endpoints live in one process — the listener registry is in-memory —
// so this mode exercises real sockets, framing and kernel scheduling while
// staying self-contained. Latency options (BaseLatency/Jitter/LinkLatency)
// are ignored; the wire provides its own timing.
func NewTCPNetwork(opts Options) *Network {
	n := NewNetwork(opts)
	n.mu.Lock()
	n.tcp = newTCPFabric(n)
	n.mu.Unlock()
	return n
}

// maxFrame bounds one frame's payload (64 MiB), guarding the reader against
// corrupt length prefixes.
const maxFrame = 64 << 20

// tcpFabric carries frames between endpoints over loopback sockets.
type tcpFabric struct {
	net *Network

	mu        sync.Mutex
	addrs     map[types.NodeID]string
	listeners map[types.NodeID]net.Listener
	conns     map[connKey]*outConn
	accepted  []net.Conn
	closed    bool
	wg        sync.WaitGroup
}

type connKey struct {
	from, to types.NodeID
}

// Send-path sizing. Only the 64 KiB buffers were measured on the repo
// benchmark (see EXPERIMENTS.md, "Decide by reference and the non-blocking
// send path"); the cap is sized from the worst-case burst and no benchmark
// run reaches it.
const (
	// sendQueueCap is how many bytes may already be waiting on a connection
	// before transmit drops further frames. State transfer is the largest
	// regular burst: fetchWorkers (4) range replies of 256 KiB can target one
	// joiner at once, and the cap is four times that.
	sendQueueCap = 4 << 20
	// sendBufKeep is the largest buffer a connection keeps between flushes; a
	// burst of ordinary protocol frames fits, and what a transfer chunk grew
	// is handed back to the collector.
	sendBufKeep = 64 << 10
	// readBufSize lets a burst of 1 KiB frames cost one read(2).
	readBufSize = 64 << 10
)

// outConn is one outbound connection. transmit appends frames to queue under
// mu and never touches the socket: the flusher goroutine dials, then swaps
// queue for its spare buffer and writes outside the lock. A caller therefore
// never waits on the kernel, a burst of transmits (leader broadcast fan-out,
// a batch of forwards) reaches it as one write, and a peer that stops reading
// costs its own frames, nobody else's: past sendQueueCap they are dropped and
// counted in DroppedBusy — datagram semantics, which the protocols tolerate.
// TCP_NODELAY is set explicitly: with our own coalescing in front, Nagle's
// algorithm would only add latency.
type outConn struct {
	mu    sync.Mutex
	queue []byte   // encoded frames not yet handed to the flusher
	conn  net.Conn // nil until the flusher has dialed
	dead  bool     // sticky: drop frames; the fabric has forgotten this conn

	notify chan struct{} // cap 1: kick the flusher
	quit   chan struct{}
	stop   sync.Once
}

// shutdown marks the connection dead, closes the socket (unblocking a write
// in flight) and stops the flusher, exactly once.
func (oc *outConn) shutdown() {
	oc.stop.Do(func() {
		oc.mu.Lock()
		oc.dead = true
		conn := oc.conn
		oc.mu.Unlock()
		close(oc.quit)
		if conn != nil {
			_ = conn.Close()
		}
	})
}

// dial connects to addr and publishes the socket, unless the connection was
// shut down meanwhile.
func (oc *outConn) dial(addr string) bool {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return false
	}
	if tc, isTCP := conn.(*net.TCPConn); isTCP {
		// We batch in userspace; Nagle would only delay the flushed burst
		// behind un-acked data.
		_ = tc.SetNoDelay(true)
	}
	oc.mu.Lock()
	dead := oc.dead
	if !dead {
		oc.conn = conn
	}
	oc.mu.Unlock()
	if dead {
		_ = conn.Close()
	}
	return !dead
}

// flushLoop owns the socket. Each notify wakes it to take everything queued
// so far; frames queued while a write is in flight ride the next one.
func (f *tcpFabric) flushLoop(key connKey, oc *outConn, addr string) {
	defer f.wg.Done()
	if !oc.dial(addr) {
		f.dropConn(key, oc)
		return
	}
	var spare []byte
	for {
		select {
		case <-oc.quit:
			return
		case <-oc.notify:
		}
		oc.mu.Lock()
		buf := oc.queue
		oc.queue = spare[:0]
		oc.mu.Unlock()
		if len(buf) > 0 {
			if _, err := oc.conn.Write(buf); err != nil {
				f.dropConn(key, oc)
				return
			}
		}
		if cap(buf) > sendBufKeep {
			buf = nil
		}
		spare = buf
	}
}

// dropConn forgets a dead connection so the next transmit redials. Failures
// stay silent — exactly like datagram loss; the protocols retransmit.
func (f *tcpFabric) dropConn(key connKey, oc *outConn) {
	f.mu.Lock()
	if f.conns[key] == oc {
		delete(f.conns, key)
	}
	f.mu.Unlock()
	oc.shutdown()
}

func newTCPFabric(n *Network) *tcpFabric {
	return &tcpFabric{
		net:       n,
		addrs:     make(map[types.NodeID]string),
		listeners: make(map[types.NodeID]net.Listener),
		conns:     make(map[connKey]*outConn),
	}
}

// listenFor starts the accept loop for one endpoint.
func (f *tcpFabric) listenFor(e *Endpoint) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		_ = ln.Close()
		return ErrClosed
	}
	f.addrs[e.id] = ln.Addr().String()
	f.listeners[e.id] = ln
	f.mu.Unlock()

	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			f.mu.Lock()
			if f.closed {
				f.mu.Unlock()
				_ = conn.Close()
				return
			}
			f.accepted = append(f.accepted, conn)
			f.mu.Unlock()
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				f.readLoop(conn, e)
			}()
		}
	}()
	return nil
}

// transmit queues one frame to the destination; the first frame for a pair
// starts the connection's flusher, which dials. It never blocks on the
// network. Failures and overflow are silent — exactly like datagram loss; the
// protocols retransmit.
func (f *tcpFabric) transmit(from, to types.NodeID, group, stream uint64, kind uint8, head, body []byte) {
	key := connKey{from: from, to: to}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	oc, ok := f.conns[key]
	if !ok {
		addr, haveAddr := f.addrs[to]
		if !haveAddr {
			f.mu.Unlock()
			return
		}
		oc = &outConn{notify: make(chan struct{}, 1), quit: make(chan struct{})}
		f.conns[key] = oc
		f.wg.Add(1)
		go f.flushLoop(key, oc, addr)
	}
	f.mu.Unlock()

	oc.mu.Lock()
	if oc.dead {
		oc.mu.Unlock()
		return
	}
	queued := len(oc.queue)
	if queued > sendQueueCap {
		// A frame that finds the queue under the cap always goes, whatever
		// its size, so snapshot transfer replies still pass.
		oc.mu.Unlock()
		f.net.countDroppedBusy()
		return
	}
	oc.queue = appendFrame(oc.queue, from, group, stream, kind, head, body)
	oc.mu.Unlock()
	select {
	case oc.notify <- struct{}{}:
	default: // flusher already kicked; it will see this frame too
	}
}

// readLoop decodes frames from one connection accepted on e's listener and
// delivers each to its handler itself: the wire supplied the latency, so
// neither the simulated scheduler nor an inbox sits in between, and a clump of
// frames that arrived in one read reaches the handlers back to back.
func (f *tcpFabric) readLoop(conn net.Conn, e *Endpoint) {
	defer func() { _ = conn.Close() }()
	br := bufio.NewReaderSize(conn, readBufSize)
	var sender types.NodeID // every frame on a connection names the same one
	for {
		from, group, stream, kind, payload, err := decodeFrame(br, sender)
		if err != nil {
			return
		}
		sender = from
		e.deliver(from, group, stream, kind, payload)
	}
}

func (f *tcpFabric) close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	listeners := f.listeners
	conns := f.conns
	accepted := f.accepted
	f.listeners = map[types.NodeID]net.Listener{}
	f.conns = map[connKey]*outConn{}
	f.accepted = nil
	f.mu.Unlock()
	for _, ln := range listeners {
		_ = ln.Close()
	}
	for _, oc := range conns {
		oc.shutdown()
	}
	for _, c := range accepted {
		_ = c.Close()
	}
	f.wg.Wait()
}

// Frame layout (legacy, carries group 0):
//
//	fromLen|from|stream|kind|payloadLen|payload
//
// all varints except kind (one byte). Grouped frames prepend a marker:
//
//	0|group|fromLen|from|stream|kind|payloadLen|payload
//
// A leading varint 0 can never be a legacy frame's fromLen (node IDs are
// non-empty), so it unambiguously marks the grouped form. Group 0 always
// encodes as the legacy layout — old readers decode new group-0 traffic and
// new readers decode old frames as group 0, in both directions.
//
// The payload is head followed by body (Endpoint.SendParts); head may be nil.
func appendFrame(buf []byte, from types.NodeID, group, stream uint64, kind uint8, head, body []byte) []byte {
	if group != 0 {
		buf = append(buf, 0) // grouped-frame marker
		buf = binary.AppendUvarint(buf, group)
	}
	buf = binary.AppendUvarint(buf, uint64(len(from)))
	buf = append(buf, from...)
	buf = binary.AppendUvarint(buf, stream)
	buf = append(buf, kind)
	buf = binary.AppendUvarint(buf, uint64(len(head)+len(body)))
	return append(append(buf, head...), body...)
}

// decodeFrame reads one frame. last is the sender the previous frame on this
// connection named ("" on the first): a connection carries one sender's
// frames, so the ID is converted to a string once, not once per frame. The
// payload is a fresh buffer per frame — the one copy a socket read needs — and
// belongs to whoever it is delivered to.
func decodeFrame(br *bufio.Reader, last types.NodeID) (from types.NodeID, group, stream uint64, kind uint8, payload []byte, err error) {
	fromLen, err := binary.ReadUvarint(br)
	if err != nil {
		return "", 0, 0, 0, nil, err
	}
	if fromLen == 0 {
		// Grouped-frame marker: a real fromLen is never 0.
		group, err = binary.ReadUvarint(br)
		if err != nil {
			return "", 0, 0, 0, nil, err
		}
		fromLen, err = binary.ReadUvarint(br)
		if err != nil {
			return "", 0, 0, 0, nil, err
		}
	}
	if fromLen == 0 || fromLen > 4096 {
		return "", 0, 0, 0, nil, io.ErrUnexpectedEOF
	}
	raw, err := br.Peek(int(fromLen))
	if err != nil {
		return "", 0, 0, 0, nil, err
	}
	if from = last; string(raw) != string(from) {
		from = types.NodeID(raw)
	}
	if _, err := br.Discard(int(fromLen)); err != nil {
		return "", 0, 0, 0, nil, err
	}
	stream, err = binary.ReadUvarint(br)
	if err != nil {
		return "", 0, 0, 0, nil, err
	}
	kindByte, err := br.ReadByte()
	if err != nil {
		return "", 0, 0, 0, nil, err
	}
	plen, err := binary.ReadUvarint(br)
	if err != nil {
		return "", 0, 0, 0, nil, err
	}
	if plen > maxFrame {
		return "", 0, 0, 0, nil, io.ErrUnexpectedEOF
	}
	payload = make([]byte, plen)
	if _, err := io.ReadFull(br, payload); err != nil {
		return "", 0, 0, 0, nil, err
	}
	return from, group, stream, kindByte, payload, nil
}
