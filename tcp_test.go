package damulticast

import (
	"context"
	"errors"
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
	a.FlushDelay = -1 // synchronous flush: write errors surface in Send

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
