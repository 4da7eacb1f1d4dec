package damulticast

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// TCPTransport carries protocol frames over TCP with a 4-byte
// big-endian length prefix. Each node listens on one address (which is
// also its process id) and lazily maintains outbound connections to
// its peers. Frame delivery remains best-effort: connection errors
// surface as Send errors, which the protocol treats as channel losses.
//
// Each outbound connection has its own lock, a bounded queue of
// pending frames and one writer goroutine. Send appends the frame to
// the queue and returns; the writer writes everything queued in one
// Write as soon as it has bytes. An idle link therefore puts each frame
// on the wire at once, and frames that arrive while a Write is in
// flight — an event fan-out, a shuffle exchange — go out together in
// the next one. Sends to different peers never serialize on a
// transport-wide lock, and a peer that stops reading fills only its
// own queue, after which Send drops frames to it instead of blocking.
type TCPTransport struct {
	listener net.Listener
	addr     string

	mu      sync.Mutex
	handler func([]byte)
	conns   map[string]*tcpConn   // outbound, keyed by peer address
	inbound map[net.Conn]struct{} // accepted connections being served
	closed  bool
	wg      sync.WaitGroup

	// DialTimeout bounds connection establishment (default 2s).
	DialTimeout time.Duration
	// MaxFrame bounds accepted frame sizes (default 1 MiB).
	MaxFrame uint32
}

var _ Transport = (*TCPTransport)(nil)

// ErrFrameTooLarge signals an oversized inbound or outbound frame.
var ErrFrameTooLarge = errors.New("damulticast: frame exceeds MaxFrame")

// errQueueFull is Send's error when a frame does not fit the peer's
// queue while its writer is still busy with the previous Write: the
// peer reads slower than frames arrive, and the frame is lost like any
// channel loss.
var errQueueFull = errors.New("damulticast: TCP send queue full")

// tcpWriteBuf bounds a connection's queue of pending frames: large
// enough to hold a whole gossip burst, small enough to be cheap per
// peer. A single larger frame (up to MaxFrame) is accepted when the
// queue is empty.
const tcpWriteBuf = 64 << 10

// frameTooLarge is the outbound size guard, compared in int64 space: a
// payload over 4 GiB would wrap a uint32 cast, slip past a same-width
// comparison and write a corrupt length prefix the receiver would
// misframe on.
func frameTooLarge(n int64, max uint32) bool { return n > int64(max) }

// tcpConn is one cached outbound connection. Send appends frames to
// pending; the connection's writer goroutine (writeLoop) swaps pending
// out and writes it. The writer owns the socket: it closes it on exit.
type tcpConn struct {
	conn net.Conn
	wake chan struct{} // cap 1: pending grew, or closing was set

	mu      sync.Mutex
	taken   sync.Cond // L is mu; broadcast when the writer takes pending or stops
	pending []byte    // length-prefixed frames not yet handed to Write
	writing bool      // the writer is inside Write
	closing bool      // Close: drain pending, then exit
	err     error     // the writer's write error; poisons the connection
}

// enqueue appends one length-prefixed frame to pending and wakes the
// writer. A frame that does not fit is dropped with errQueueFull if
// the writer is inside Write, so a peer that stops reading never blocks
// the sender. If the writer is not writing, it is runnable but not yet
// scheduled — a sender that never yields can starve it for a whole
// time slice — and enqueue waits for it to take the queue: that wait
// depends on the scheduler, never on the peer.
func (c *tcpConn) enqueue(payload []byte) error {
	n := 4 + len(payload)
	c.mu.Lock()
	for c.err == nil && !c.closing && !c.fits(n) && !c.writing {
		c.taken.Wait()
	}
	var err error
	switch {
	case c.err != nil:
		err = c.err
	case c.closing:
		err = ErrTransportClosed
	case !c.fits(n):
		err = errQueueFull
	}
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.pending = binary.BigEndian.AppendUint32(c.pending, uint32(len(payload)))
	c.pending = append(c.pending, payload...)
	c.mu.Unlock()
	c.signal()
	return nil
}

// fits reports whether n more bytes fit the queue. c.mu must be held.
func (c *tcpConn) fits(n int) bool {
	return len(c.pending) == 0 || len(c.pending)+n <= tcpWriteBuf
}

// signal wakes the writer without blocking; a token already waiting
// covers this wake-up too.
func (c *tcpConn) signal() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// close asks the writer to drain pending and exit.
func (c *tcpConn) close() {
	c.mu.Lock()
	c.closing = true
	c.taken.Broadcast()
	c.mu.Unlock()
	c.signal()
}

// writeLoop is c's writer. It sleeps until pending has bytes, then
// writes all of them in one Write; frames queued during that Write go
// out together in the next one. The first write error poisons the
// connection and evicts it from the cache, so the next Send dials
// afresh. After close it drains pending and exits.
func (t *TCPTransport) writeLoop(addr string, c *tcpConn) {
	defer t.wg.Done()
	defer func() { _ = c.conn.Close() }()
	var buf []byte
	for {
		c.mu.Lock()
		c.writing = false
		for len(c.pending) == 0 && !c.closing {
			c.mu.Unlock()
			<-c.wake
			c.mu.Lock()
		}
		buf, c.pending = c.pending, buf[:0]
		c.writing = len(buf) > 0
		c.taken.Broadcast()
		c.mu.Unlock()
		if len(buf) == 0 {
			return // closing, and nothing left to drain
		}
		if _, err := c.conn.Write(buf); err != nil {
			c.mu.Lock()
			c.err = err
			c.pending = nil
			c.taken.Broadcast()
			c.mu.Unlock()
			t.evict(addr, c)
			return
		}
		if len(buf) > tcpWriteBuf {
			buf = nil // held one oversized frame: do not keep its memory
		}
	}
}

// NewTCPTransport listens on listenAddr ("host:port", ":0" picks a
// free port) and starts accepting inbound peers.
func NewTCPTransport(listenAddr string) (*TCPTransport, error) {
	l, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("damulticast: listen: %w", err)
	}
	t := &TCPTransport{
		listener:    l,
		addr:        l.Addr().String(),
		conns:       make(map[string]*tcpConn),
		inbound:     make(map[net.Conn]struct{}),
		DialTimeout: 2 * time.Second,
		MaxFrame:    1 << 20,
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address.
func (t *TCPTransport) Addr() string { return t.addr }

// SetHandler installs the receive callback.
func (t *TCPTransport) SetHandler(h func([]byte)) {
	t.mu.Lock()
	t.handler = h
	t.mu.Unlock()
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCPTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		_ = conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	r := bufio.NewReader(conn)
	for {
		payload, err := t.readFrame(r)
		if err != nil {
			return
		}
		t.mu.Lock()
		h := t.handler
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return
		}
		if h != nil {
			h(payload)
		}
	}
}

// readFrame reads one length-prefixed frame into a fresh buffer — the
// allocation is deliberate: the handler owns the buffer (see the
// Transport receive contract), and the hub's pooled decoder aliases
// payload bytes into it.
func (t *TCPTransport) readFrame(r io.Reader) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(lenBuf[:])
	if size > t.MaxFrame {
		return nil, ErrFrameTooLarge
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// Send frames and transmits payload to addr, dialing or reusing a
// cached connection. The frame is copied into the connection's queue
// before Send returns (callers may reuse payload immediately), and the
// connection's writer puts it on the wire as soon as its previous Write
// completes. A frame that would overflow the queue's 64 KiB while that
// Write is still in progress — the peer has stopped reading — is
// dropped with an error: Send never waits on the peer. A failed write
// poisons and evicts the connection; when a Send hits a poisoned
// *cached* connection — the classic half-dead socket to a peer that
// restarted since the last exchange — it retries exactly once on a
// freshly dialed connection instead of losing the frame, so the first
// message to a restarted peer does not silently turn into a channel
// loss. Fresh-dial failures are not retried (the peer is genuinely
// down), and neither is the retry itself, so a flapping peer costs one
// extra dial per Send at most.
func (t *TCPTransport) Send(addr string, payload []byte) error {
	if frameTooLarge(int64(len(payload)), t.MaxFrame) {
		return ErrFrameTooLarge
	}
	conn, cached, err := t.connFor(addr)
	if err != nil {
		return err
	}
	werr := conn.enqueue(payload)
	if werr == nil || werr == errQueueFull {
		return werr
	}
	// The writer evicts a poisoned connection itself, but may not have
	// yet; the redial below must not find it still cached.
	t.evict(addr, conn)
	if !cached {
		return fmt.Errorf("damulticast: write %s: %w", addr, werr)
	}
	retry, _, err := t.connFor(addr)
	if err != nil {
		return fmt.Errorf("damulticast: write %s: %w (redial failed: %v)", addr, werr, err)
	}
	if err := retry.enqueue(payload); err != nil {
		return fmt.Errorf("damulticast: write %s after redial: %w", addr, err)
	}
	return nil
}

// connFor returns the connection to addr, dialing one if needed;
// cached reports whether it came from the cache (and may therefore be
// arbitrarily stale). Only the transport map is guarded by t.mu; frame
// writes take the per-connection lock.
func (t *TCPTransport) connFor(addr string) (conn *tcpConn, cached bool, err error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, false, ErrTransportClosed
	}
	if conn, ok := t.conns[addr]; ok {
		t.mu.Unlock()
		return conn, true, nil
	}
	t.mu.Unlock()

	raw, err := net.DialTimeout("tcp", addr, t.DialTimeout)
	if err != nil {
		return nil, false, fmt.Errorf("damulticast: dial %s: %w", addr, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		_ = raw.Close()
		return nil, false, ErrTransportClosed
	}
	if existing, race := t.conns[addr]; race {
		// Another Send raced us; keep the existing connection.
		_ = raw.Close()
		return existing, true, nil
	}
	return t.startConnLocked(addr, raw), false, nil
}

// startConnLocked caches raw as the connection to addr and starts its
// writer. t.mu must be held and the transport open.
func (t *TCPTransport) startConnLocked(addr string, raw net.Conn) *tcpConn {
	conn := &tcpConn{conn: raw, wake: make(chan struct{}, 1)}
	conn.taken.L = &conn.mu
	t.conns[addr] = conn
	t.wg.Add(1)
	go t.writeLoop(addr, conn)
	return conn
}

// evict drops a failed connection from the cache; its writer closes
// the socket on the way out.
func (t *TCPTransport) evict(addr string, conn *tcpConn) {
	t.mu.Lock()
	if t.conns[addr] == conn {
		delete(t.conns, addr)
	}
	t.mu.Unlock()
}

// Close stops the listener and all connections. Frames already queued
// are written first, under a one-second deadline so a stalled peer
// cannot block shutdown; Close returns once every writer has exited.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := t.conns
	t.conns = make(map[string]*tcpConn)
	inbound := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		inbound = append(inbound, c)
	}
	t.mu.Unlock()

	err := t.listener.Close()
	deadline := time.Now().Add(time.Second)
	for _, c := range conns {
		_ = c.conn.SetWriteDeadline(deadline)
		c.close()
	}
	for _, c := range inbound {
		_ = c.Close()
	}
	t.wg.Wait()
	return err
}
