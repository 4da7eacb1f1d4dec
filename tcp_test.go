package damulticast

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestTCPTransportSendReceive(t *testing.T) {
	a, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()

	var mu sync.Mutex
	var got [][]byte
	b.SetHandler(func(p []byte) {
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
	})
	if err := a.Send(b.Addr(), []byte("frame-1")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.Addr(), []byte("frame-2")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 2
	})
	mu.Lock()
	if string(got[0]) != "frame-1" || string(got[1]) != "frame-2" {
		t.Errorf("frames = %q", got)
	}
	mu.Unlock()
}

func TestTCPTransportConnectionReuse(t *testing.T) {
	a, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	var mu sync.Mutex
	count := 0
	b.SetHandler(func(p []byte) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	for i := 0; i < 50; i++ {
		if err := a.Send(b.Addr(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return count == 50
	})
}

func TestTCPTransportSendErrors(t *testing.T) {
	a, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Dialing a dead port fails.
	if err := a.Send("127.0.0.1:1", []byte("x")); err == nil {
		t.Error("send to dead port succeeded")
	}
	// Oversized frame.
	a.MaxFrame = 4
	if err := a.Send("127.0.0.1:1", []byte("toolong")); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("127.0.0.1:1", []byte("x")); !errors.Is(err, ErrTransportClosed) {
		t.Errorf("send after close = %v", err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}

func TestTCPNodesEndToEnd(t *testing.T) {
	ta, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	sub := startNode(t, ta, ".metrics", liveParams(), 20*time.Millisecond)
	pub := startNode(t, tb, ".metrics", liveParams(), 20*time.Millisecond,
		WithGroupContacts(ta.Addr()))

	id, err := pub.Publish(context.Background(), []byte("cpu=97"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-sub.Events():
		if ev.ID != id || string(ev.Payload) != "cpu=97" {
			t.Errorf("event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event never crossed TCP")
	}
}

// TestFrameTooLargeGuard pins the MaxFrame comparison to int64 space.
// The old guard compared uint32(len(payload)) > MaxFrame, so a payload
// of 4 GiB + n wrapped to n, slipped past the check and wrote a length
// prefix of n — the receiver would then misframe the stream. Payload
// lengths are faked (nobody allocates 4 GiB in a unit test); the guard
// is a pure function of the length.
func TestFrameTooLargeGuard(t *testing.T) {
	const maxFrame = 1 << 20
	tests := []struct {
		n    int64
		want bool
	}{
		{0, false},
		{maxFrame, false},
		{maxFrame + 1, true},
		{1<<32 - 1, true}, // max uint32
		{1 << 32, true},   // wraps a uint32 cast to 0
		{1<<32 + 5, true}, // wraps a uint32 cast to 5 — the old bypass
	}
	for _, tt := range tests {
		if got := frameTooLarge(tt.n, maxFrame); got != tt.want {
			t.Errorf("frameTooLarge(%d, %d) = %v, want %v", tt.n, maxFrame, got, tt.want)
		}
		// Demonstrate the wrap the old comparison suffered: every case
		// the fixed guard rejects must also exceed MaxFrame in uint64
		// space, even when its uint32 truncation does not.
		if tt.want && uint64(tt.n) <= maxFrame {
			t.Errorf("test case %d does not exceed MaxFrame", tt.n)
		}
	}
}

// TestTCPSendRejectsOversizedFrame: the live Send path refuses frames
// over MaxFrame with ErrFrameTooLarge before touching any connection.
func TestTCPSendRejectsOversizedFrame(t *testing.T) {
	tr, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	tr.MaxFrame = 16
	if err := tr.Send(tr.Addr(), make([]byte, 17)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized send error = %v, want ErrFrameTooLarge", err)
	}
	if err := tr.Send(tr.Addr(), make([]byte, 16)); err != nil {
		t.Errorf("exact-size send failed: %v", err)
	}
}

// TestTCPSendRetriesAfterPeerRestart: a peer that restarts between
// sends leaves a half-dead cached connection behind; writes to it fail
// (or vanish into the kernel buffer until the RST lands). Send must
// absorb the failure by redialing once, so no Send to a live listener
// ever surfaces an error — without the retry, the first post-restart
// write error would both lose the frame and bubble up as a loss.
func TestTCPSendRetriesAfterPeerRestart(t *testing.T) {
	a, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()

	b, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()
	var mu sync.Mutex
	var got []string
	handler := func(p []byte) {
		mu.Lock()
		got = append(got, string(p))
		mu.Unlock()
	}
	b.SetHandler(handler)

	if err := a.Send(addr, []byte("before")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	})

	// Kill the listener and restart it on the same address: a's cached
	// connection is now talking to a closed socket.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := NewTCPTransport(addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer func() { _ = b2.Close() }()
	b2.SetHandler(handler)

	// Depending on timing, the first write after the restart may still
	// land in the kernel buffer of the dead connection (silently lost)
	// before the RST poisons it; every subsequent Send then hits the
	// poisoned connection and must transparently redial. The guarantee
	// under test: no Send errors, and a frame gets through promptly.
	deadline := time.Now().Add(3 * time.Second)
	for i := 0; ; i++ {
		if err := a.Send(addr, []byte("after")); err != nil {
			t.Fatalf("Send %d after peer restart: %v", i, err)
		}
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no frame delivered to the restarted peer")
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if got[len(got)-1] != "after" {
		t.Errorf("restarted peer received %q", got[len(got)-1])
	}
}

// countingConn is a net.Conn that records every Write. After hold, the
// next Write reports on entered and blocks until released.
type countingConn struct {
	net.Conn // nil: the writer uses only Write, SetWriteDeadline and Close

	entered chan struct{}
	mu      sync.Mutex
	gate    chan struct{}
	writes  [][]byte
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, bytes.Clone(p))
	gate := c.gate
	c.gate = nil
	c.mu.Unlock()
	if gate != nil {
		c.entered <- struct{}{}
		<-gate
	}
	return len(p), nil
}

func (c *countingConn) SetWriteDeadline(time.Time) error { return nil }
func (c *countingConn) Close() error                     { return nil }

// hold makes the next Write block; the returned func releases it.
func (c *countingConn) hold() (release func()) {
	gate := make(chan struct{})
	c.mu.Lock()
	c.gate = gate
	c.mu.Unlock()
	return func() { close(gate) }
}

func (c *countingConn) written() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...)
}

func lengthPrefixed(payloads ...[]byte) []byte {
	var b []byte
	for _, p := range payloads {
		b = binary.BigEndian.AppendUint32(b, uint32(len(p)))
		b = append(b, p...)
	}
	return b
}

// TestTCPWritesCoalesceWhileBusy pins the writer's batching by counting
// Writes, not time: an idle link writes each frame alone and at once;
// frames queued while a Write is in flight go out together in exactly
// one further Write; and a full queue drops the frame with
// errQueueFull while the connection stays cached.
func TestTCPWritesCoalesceWhileBusy(t *testing.T) {
	tr, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	fc := &countingConn{entered: make(chan struct{}, 1)}
	const peer = "peer:1"
	tr.mu.Lock()
	conn := tr.startConnLocked(peer, fc)
	tr.mu.Unlock()
	send := func(p []byte) {
		t.Helper()
		if err := tr.Send(peer, p); err != nil {
			t.Fatal(err)
		}
	}
	waitWrites := func(n int) [][]byte {
		t.Helper()
		waitFor(t, func() bool { return len(fc.written()) >= n })
		w := fc.written()
		if len(w) != n {
			t.Fatalf("%d writes, want %d", len(w), n)
		}
		return w
	}

	// Idle: one Write per frame, bytes and order exact.
	const idle = 5
	for i := 0; i < idle; i++ {
		p := []byte(fmt.Sprintf("idle-%d", i))
		send(p)
		if w := waitWrites(i + 1); !bytes.Equal(w[i], lengthPrefixed(p)) {
			t.Fatalf("idle write %d = %q, want %q", i, w[i], lengthPrefixed(p))
		}
	}

	// Busy: N frames sent during one held Write become one more Write.
	release := fc.hold()
	head := []byte("busy-head")
	send(head)
	<-fc.entered
	var burst [][]byte
	for i := 0; i < 10; i++ {
		p := []byte(fmt.Sprintf("burst-%d", i))
		burst = append(burst, p)
		send(p)
	}
	release()
	w := waitWrites(idle + 2)
	if !bytes.Equal(w[idle], lengthPrefixed(head)) {
		t.Fatalf("held write = %q", w[idle])
	}
	if want := lengthPrefixed(burst...); !bytes.Equal(w[idle+1], want) {
		t.Fatalf("coalesced write = %q, want %q", w[idle+1], want)
	}

	// Full: with the queue at its bound, Send drops the frame and the
	// connection stays cached.
	release = fc.hold()
	send(head)
	<-fc.entered
	fill := make([]byte, 1020) // 1024 bytes framed, so the queue fills exactly
	for i := 0; i < tcpWriteBuf/1024; i++ {
		send(fill)
	}
	if err := tr.Send(peer, []byte("x")); !errors.Is(err, errQueueFull) {
		t.Fatalf("Send to a full queue = %v, want errQueueFull", err)
	}
	tr.mu.Lock()
	cached := tr.conns[peer] == conn
	tr.mu.Unlock()
	if !cached {
		t.Fatal("a full queue evicted the connection")
	}
	release()
	if w := waitWrites(idle + 4); len(w[idle+3]) != tcpWriteBuf {
		t.Fatalf("drained %d bytes, want %d", len(w[idle+3]), tcpWriteBuf)
	}
}

// TestTCPSendWaitsForStarvedWriter: a full queue whose writer is not
// inside Write means the writer has not been scheduled yet, not that
// the peer is slow. On one P a sender that never yields starves the
// writer outright; Send must wait for the writer to take the queue
// instead of dropping frames to a peer that reads everything.
func TestTCPSendWaitsForStarvedWriter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	fc := &countingConn{}
	const peer = "peer:1"
	tr.mu.Lock()
	tr.startConnLocked(peer, fc)
	tr.mu.Unlock()

	frame := make([]byte, 1020) // 1024 bytes framed
	const frames = 4 * tcpWriteBuf / 1024
	for i := 0; i < frames; i++ {
		if err := tr.Send(peer, frame); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	waitFor(t, func() bool {
		n := 0
		for _, w := range fc.written() {
			n += len(w)
		}
		return n == frames*1024
	})
}

// TestTCPTransportCloseStopsWriters: writer goroutines belong to the
// transport. Close drains what Send queued, then returns only after
// every writer has exited; a writer whose peer died exits on its own
// once its write fails and the connection is evicted.
func TestTCPTransportCloseStopsWriters(t *testing.T) {
	settled := func(baseline int) func() bool {
		return func() bool { return runtime.NumGoroutine() <= baseline }
	}

	t.Run("close", func(t *testing.T) {
		var mu sync.Mutex
		got := 0
		peers := make([]*TCPTransport, 3)
		for i := range peers {
			p, err := NewTCPTransport("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = p.Close() }()
			p.SetHandler(func([]byte) {
				mu.Lock()
				got++
				mu.Unlock()
			})
			peers[i] = p
		}
		baseline := runtime.NumGoroutine()
		a, err := NewTCPTransport("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range peers {
			if err := a.Send(p.Addr(), []byte("last words")); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return got == len(peers)
		})
		waitFor(t, settled(baseline))
	})

	t.Run("evicted", func(t *testing.T) {
		a, err := NewTCPTransport("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = a.Close() }()
		baseline := runtime.NumGoroutine()
		b, err := NewTCPTransport("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		delivered := make(chan struct{}, 1)
		b.SetHandler(func([]byte) {
			select {
			case delivered <- struct{}{}:
			default:
			}
		})
		if err := a.Send(b.Addr(), []byte("hello")); err != nil {
			t.Fatal(err)
		}
		<-delivered
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		// Writes to the dead peer fail within a frame or two; the writer
		// then evicts its connection, and redials to the closed port fail.
		waitFor(t, func() bool {
			_ = a.Send(b.Addr(), []byte("anyone?"))
			a.mu.Lock()
			defer a.mu.Unlock()
			return len(a.conns) == 0
		})
		waitFor(t, settled(baseline))
	})
}

// TestTCPConcurrentSendsKeepOrder: Sends from several goroutines to one
// peer share its queue and writer; every frame arrives once, and each
// sender's frames arrive in the order it sent them.
func TestTCPConcurrentSendsKeepOrder(t *testing.T) {
	a, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	const senders, each = 4, 200
	var mu sync.Mutex
	next := make([]int, senders)
	b.SetHandler(func(p []byte) {
		mu.Lock()
		defer mu.Unlock()
		s, seq := int(p[0]), int(binary.BigEndian.Uint16(p[1:]))
		if seq != next[s] {
			t.Errorf("sender %d: frame %d arrived, want %d", s, seq, next[s])
		}
		next[s] = seq + 1
	})
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := a.Send(b.Addr(), []byte{byte(s), byte(i >> 8), byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, n := range next {
			if n != each {
				return false
			}
		}
		return true
	})
}

// BenchmarkTCPTransportSend is Send's sustained cost per 174-byte frame
// (a hier_paced_tcp event frame) over loopback, writer included: when
// the queue is full Send yields and retries. The peer is a bare socket
// that discards what it reads, so allocations are the send path's
// alone (a receiving TCPTransport allocates every frame for its
// handler by contract). The send path must stay allocation-free.
func BenchmarkTCPTransportSend(b *testing.B) {
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		c, err := sink.Accept()
		if err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, c)
		_ = c.Close()
	}()
	tr, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		_ = tr.Close()
		_ = sink.Close()
		<-drained
	})
	addr := sink.Addr().String()
	frame := make([]byte, 174)
	if err := tr.Send(addr, frame); err != nil { // dial outside the timed loop
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			err := tr.Send(addr, frame)
			if err == nil {
				break
			}
			if err != errQueueFull {
				b.Fatal(err)
			}
			runtime.Gosched()
		}
	}
}
