package damulticast

import (
	"errors"
	"fmt"
	"sync"
)

// Transport carries encoded protocol messages between nodes.
// Implementations must be safe for concurrent use; Send may be called
// from the node's protocol goroutine while the receive path runs on
// transport goroutines. Delivery is best-effort: Send errors are
// treated as channel losses by the protocol.
//
// The payload passed to Send is only valid for the duration of the
// call: the sender fans the same pooled buffer out to many peers and
// reuses it afterwards, so implementations that deliver or transmit
// asynchronously must copy first.
//
// On receive the ownership flips: the buffer passed to the handler
// belongs to the handler — the transport must hand it a fresh buffer
// per frame and never touch it again. The hub relies on this to queue
// raw frames and decode them in place without copying; both bundled
// transports comply (TCPTransport reads each frame into a new buffer,
// MemTransport copies before enqueueing).
type Transport interface {
	// Addr returns the address other nodes use to reach this
	// transport; it doubles as the node's default process id.
	Addr() string
	// Send transmits payload to the transport at addr. It must not
	// retain payload past its return.
	Send(addr string, payload []byte) error
	// SetHandler installs the receive callback. Must be called before
	// any delivery; NewHub does this. Each call to the handler
	// transfers ownership of the payload buffer to the handler.
	SetHandler(func(payload []byte))
	// Close releases resources; subsequent Sends fail.
	Close() error
}

// Transport errors.
var (
	ErrTransportClosed = errors.New("damulticast: transport closed")
	ErrUnknownAddr     = errors.New("damulticast: unknown address")
	ErrDuplicateAddr   = errors.New("damulticast: duplicate address")
)

// MemNetwork is an in-process transport fabric for tests, examples and
// single-binary deployments: every MemTransport created from it can
// reach every other by address. Optionally lossy (LossRate) to emulate
// the paper's unreliable channels.
type MemNetwork struct {
	mu         sync.RWMutex
	transports map[string]*MemTransport
	// LossRate in [0,1) drops that fraction of frames (test aid).
	lossRate float64
	lossSeq  uint64
}

// NewMemNetwork creates an empty fabric.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{transports: make(map[string]*MemTransport)}
}

// SetLossRate makes the fabric drop the given fraction of frames,
// deterministically interleaved (every k-th frame pattern), which
// keeps tests reproducible without a shared random source.
func (n *MemNetwork) SetLossRate(rate float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if rate < 0 {
		rate = 0
	}
	if rate >= 1 {
		rate = 0.999
	}
	n.lossRate = rate
}

// NewTransport registers a new endpoint with the given address.
// Panics on duplicate addresses (programming error in fixtures).
func (n *MemNetwork) NewTransport(addr string) *MemTransport {
	t, err := n.AddTransport(addr)
	if err != nil {
		panic(err)
	}
	return t
}

// AddTransport registers a new endpoint, failing on duplicates.
func (n *MemNetwork) AddTransport(addr string) (*MemTransport, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.transports[addr]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateAddr, addr)
	}
	t := &MemTransport{
		net:   n,
		addr:  addr,
		queue: make(chan []byte, memDeliveryQueue),
		done:  make(chan struct{}),
	}
	n.transports[addr] = t
	go t.deliverLoop()
	return t, nil
}

// deliver routes a frame to the destination's handler, applying loss.
func (n *MemNetwork) deliver(to string, payload []byte) error {
	n.mu.RLock()
	target, ok := n.transports[to]
	loss := n.lossRate
	n.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownAddr, to)
	}
	if loss > 0 {
		n.mu.Lock()
		n.lossSeq++
		drop := float64(n.lossSeq%1000) < loss*1000
		n.mu.Unlock()
		if drop {
			return nil // silently lost, like a UDP drop
		}
	}
	// Skip the copy when nothing will consume the frame (endpoint
	// closed or no handler installed yet) — the old pre-queue fast path.
	target.mu.RLock()
	listening := target.handler != nil && !target.closed
	target.mu.RUnlock()
	if !listening {
		return nil
	}
	// Copy the payload: the receiver must never alias sender buffers
	// (the sender reuses pooled encode buffers after Send returns).
	cp := make([]byte, len(payload))
	copy(cp, payload)
	target.enqueue(cp)
	return nil
}

// remove unregisters a closed endpoint.
func (n *MemNetwork) remove(addr string) {
	n.mu.Lock()
	delete(n.transports, addr)
	n.mu.Unlock()
}

// memDeliveryQueue bounds each endpoint's inbound frame queue. Frames
// arriving while the queue is full are dropped, like any other channel
// loss — the protocol is built for that.
const memDeliveryQueue = 4096

// MemTransport is one endpoint of a MemNetwork.
//
// Inbound frames flow through a bounded queue drained by a single
// delivery goroutine per endpoint, so a burst of senders costs one
// goroutine instead of one per frame and every peer observes a stable
// FIFO delivery order.
type MemTransport struct {
	net   *MemNetwork
	addr  string
	queue chan []byte
	done  chan struct{}

	mu      sync.RWMutex
	handler func([]byte)
	closed  bool
}

// enqueue appends one inbound frame, dropping it when the queue is
// full or the endpoint closed.
func (t *MemTransport) enqueue(payload []byte) {
	select {
	case <-t.done:
	case t.queue <- payload:
	default: // queue full: lost, like a UDP drop
	}
}

// deliverLoop serially hands queued frames to the handler.
func (t *MemTransport) deliverLoop() {
	for {
		select {
		case <-t.done:
			return
		case payload := <-t.queue:
			t.mu.RLock()
			h := t.handler
			closed := t.closed
			t.mu.RUnlock()
			if closed {
				return
			}
			if h != nil {
				h(payload)
			}
		}
	}
}

var _ Transport = (*MemTransport)(nil)

// Addr returns the endpoint address.
func (t *MemTransport) Addr() string { return t.addr }

// SetHandler installs the receive callback.
func (t *MemTransport) SetHandler(h func([]byte)) {
	t.mu.Lock()
	t.handler = h
	t.mu.Unlock()
}

// Send routes a frame through the fabric.
func (t *MemTransport) Send(addr string, payload []byte) error {
	t.mu.RLock()
	closed := t.closed
	t.mu.RUnlock()
	if closed {
		return ErrTransportClosed
	}
	return t.net.deliver(addr, payload)
}

// Close unregisters the endpoint and stops its delivery goroutine.
func (t *MemTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	close(t.done)
	t.net.remove(t.addr)
	return nil
}
