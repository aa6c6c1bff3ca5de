package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// TCP is a Network whose endpoints live in (potentially) different
// processes and exchange length-prefixed frames over TCP. Each endpoint
// runs its own listener; a shared registry maps endpoint names to
// addresses. Within one process, NewTCP gives every endpoint a listener on
// 127.0.0.1 and fills the registry automatically; for multi-process
// deployments, construct endpoints with ListenTCP/RegisterPeer directly.
//
// A frame is a uvarint body length followed by an AppendMessage body. A
// header starting with 0x00 (a zero-length body, or the retired 4-byte
// big-endian length of the old JSON layout) is rejected: the reader drops
// the connection rather than misparse the stream.
type TCP struct {
	mu        sync.Mutex
	registry  map[string]string // endpoint name -> host:port
	endpoints []*tcpEndpoint
	closed    bool
	meter     tcpMeter
}

var (
	_ Network = (*TCP)(nil)
	_ Meter   = (*TCP)(nil)
)

// NewTCP returns an empty TCP network with an in-process registry.
func NewTCP() *TCP {
	return &TCP{registry: make(map[string]string)}
}

// tcpMeter accumulates frame counters across a TCP network's endpoints.
// Counting happens on the send path, once a frame hit the socket.
type tcpMeter struct {
	frames, bytes atomic.Uint64
}

// countFrame records one successfully written frame of n body bytes.
func (m *tcpMeter) countFrame(n int) {
	if m == nil {
		return
	}
	m.frames.Add(1)
	m.bytes.Add(uint64(n))
}

// NetStats implements Meter. Delivered counts frames written to a peer
// socket (the transport is reliable, so written means delivered unless the
// peer dies); Bytes totals frame body bytes. TCP reports no Dropped —
// loss shows up as send errors instead.
func (t *TCP) NetStats() Stats {
	frames, bytes := t.meter.frames.Load(), t.meter.bytes.Load()
	return Stats{
		Delivered: frames,
		Bytes:     bytes,
		Binary:    WireStats{Frames: frames, Bytes: bytes},
	}
}

// Endpoint implements Network: it starts a listener on a loopback port and
// registers the endpoint name.
func (t *TCP) Endpoint(name string) (Endpoint, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	if _, ok := t.registry[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	ep, err := listenTCP(name, "127.0.0.1:0", t.lookup)
	if err != nil {
		return nil, err
	}
	ep.meter = &t.meter
	t.registry[name] = ep.listener.Addr().String()
	t.endpoints = append(t.endpoints, ep)
	return ep, nil
}

// Close implements Network.
func (t *TCP) Close() error {
	t.mu.Lock()
	eps := t.endpoints
	t.endpoints = nil
	t.closed = true
	t.mu.Unlock()
	for _, ep := range eps {
		_ = ep.Close()
	}
	return nil
}

// lookup resolves an endpoint name to its address.
func (t *TCP) lookup(name string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	addr, ok := t.registry[name]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownDest, name)
	}
	return addr, nil
}

// tcpEndpoint is one TCP attachment: a listener for inbound frames and a
// cache of outbound connections.
type tcpEndpoint struct {
	name     string
	listener net.Listener
	resolve  func(string) (string, error)
	meter    *tcpMeter // shared with the owning network; nil for standalone endpoints

	in      chan Message
	mu      sync.Mutex
	conns   map[string]*outConn
	inConns map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup
}

var _ Endpoint = (*tcpEndpoint)(nil)

type outConn struct {
	conn net.Conn
	w    *bufio.Writer
	mu   sync.Mutex
	// buf is the reusable frame-encode scratch, guarded by mu. After
	// warm-up the encode path performs no allocations: header and body
	// are appended here and written in one call.
	buf []byte
}

// ListenTCP starts an endpoint listening on addr, resolving peer names
// through the supplied function. It is exported for multi-process use; the
// in-process TCP network uses it internally.
func ListenTCP(name, addr string, resolve func(string) (string, error)) (Endpoint, error) {
	return listenTCP(name, addr, resolve)
}

func listenTCP(name, addr string, resolve func(string) (string, error)) (*tcpEndpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	ep := &tcpEndpoint{
		name:     name,
		listener: ln,
		resolve:  resolve,
		in:       make(chan Message, memoryBuffer),
		conns:    make(map[string]*outConn),
		inConns:  make(map[net.Conn]struct{}),
	}
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// Name implements Endpoint.
func (e *tcpEndpoint) Name() string { return e.name }

// Addr returns the listener address (useful for registries).
func (e *tcpEndpoint) Addr() string { return e.listener.Addr().String() }

// Send implements Endpoint: it lazily dials the destination, caches the
// connection, and writes one frame: uvarint body length + AppendMessage
// body, assembled in the connection's scratch buffer so the steady-state
// encode path allocates nothing.
func (e *tcpEndpoint) Send(msg Message) error {
	msg.From = e.name
	c, err := e.connTo(msg.To)
	if err != nil {
		return err
	}
	body := BinarySize(&msg)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf = binary.AppendUvarint(c.buf[:0], uint64(body))
	c.buf = AppendMessage(c.buf, &msg)
	if _, err := c.w.Write(c.buf); err != nil {
		e.dropConn(msg.To)
		return fmt.Errorf("transport: send to %q: %w", msg.To, err)
	}
	if err := c.w.Flush(); err != nil {
		e.dropConn(msg.To)
		return fmt.Errorf("transport: send to %q: %w", msg.To, err)
	}
	e.meter.countFrame(body)
	return nil
}

// Recv implements Endpoint.
func (e *tcpEndpoint) Recv() <-chan Message { return e.in }

// Close implements Endpoint.
func (e *tcpEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	conns := e.conns
	e.conns = map[string]*outConn{}
	inConns := e.inConns
	e.inConns = map[net.Conn]struct{}{}
	e.mu.Unlock()

	_ = e.listener.Close()
	for _, c := range conns {
		_ = c.conn.Close()
	}
	for c := range inConns {
		_ = c.Close()
	}
	e.wg.Wait()
	close(e.in)
	return nil
}

func (e *tcpEndpoint) connTo(to string) (*outConn, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	if c, ok := e.conns[to]; ok {
		e.mu.Unlock()
		return c, nil
	}
	e.mu.Unlock()

	addr, err := e.resolve(to)
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %q (%s): %w", to, addr, err)
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		_ = conn.Close()
		return nil, ErrClosed
	}
	if existing, ok := e.conns[to]; ok {
		// Lost a benign race; keep the first connection.
		_ = conn.Close()
		return existing, nil
	}
	c := &outConn{conn: conn, w: bufio.NewWriter(conn)}
	e.conns[to] = c
	return c, nil
}

func (e *tcpEndpoint) dropConn(to string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.conns[to]; ok {
		_ = c.conn.Close()
		delete(e.conns, to)
	}
}

func (e *tcpEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.listener.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			_ = conn.Close()
			return
		}
		e.inConns[conn] = struct{}{}
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(conn)
	}
}

// maxFrame bounds a single frame body.
const maxFrame = 16 << 20

// errBadHeader rejects a frame header that starts with 0x00. Every valid
// body is non-empty, so its uvarint length never starts with a zero byte;
// a zero first byte is the retired 4-byte JSON header or garbage.
var errBadHeader = fmt.Errorf("%w: zero frame header", ErrCorruptFrame)

// readFrameLen reads one uvarint frame header and returns the body length.
func readFrameLen(r *bufio.Reader) (uint64, error) {
	b0, err := r.ReadByte()
	if err != nil {
		return 0, err
	}
	if b0 == 0 {
		return 0, errBadHeader
	}
	if err := r.UnreadByte(); err != nil {
		return 0, err
	}
	return binary.ReadUvarint(r)
}

func (e *tcpEndpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	defer func() {
		_ = conn.Close()
		e.mu.Lock()
		delete(e.inConns, conn)
		e.mu.Unlock()
	}()
	r := bufio.NewReader(conn)
	var data []byte // reused across frames; decoded messages never alias it
	for {
		n, err := readFrameLen(r)
		if err != nil {
			return
		}
		if n > maxFrame {
			return // corrupt or hostile frame; drop the connection
		}
		if uint64(cap(data)) < n {
			data = make([]byte, n)
		}
		data = data[:n]
		if _, err := io.ReadFull(r, data); err != nil {
			return
		}
		msg, _, err := DecodeMessage(data)
		if err != nil {
			continue // skip undecodable frame
		}

		e.mu.Lock()
		closed := e.closed
		e.mu.Unlock()
		if closed {
			return
		}
		select {
		case e.in <- msg:
		default:
			// Inbound buffer full: drop the frame (TCP transport is
			// best-effort at the application layer, like UDP semantics
			// over a reliable stream).
		}
	}
}
