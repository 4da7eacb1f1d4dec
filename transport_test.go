package damulticast

import (
	"errors"
	"sync"
	"testing"
	"time"

	"damulticast/internal/core"
	"damulticast/internal/ids"
	"damulticast/internal/wire"
)

func TestMessageCodecRoundTrip(t *testing.T) {
	m := &core.Message{
		Type:      core.MsgEvent,
		From:      "p1",
		FromTopic: ".a.b",
		Event: &core.Event{
			ID:      ids.EventID{Origin: "p1", Seq: 42},
			Topic:   ".a.b",
			Payload: []byte("payload"),
		},
	}
	raw, err := wire.EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wire.DecodeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || got.From != m.From || got.FromTopic != m.FromTopic {
		t.Errorf("header mismatch: %+v", got)
	}
	if got.Event == nil || got.Event.ID != m.Event.ID || string(got.Event.Payload) != "payload" {
		t.Errorf("event mismatch: %+v", got.Event)
	}
}

func TestDecodeMessageMalformed(t *testing.T) {
	if _, err := wire.DecodeMessage([]byte("{not json")); err == nil {
		t.Error("malformed frame decoded")
	}
}

func TestMemNetworkBasics(t *testing.T) {
	net := NewMemNetwork()
	a := net.NewTransport("a")
	b := net.NewTransport("b")
	if a.Addr() != "a" {
		t.Errorf("Addr = %s", a.Addr())
	}
	var mu sync.Mutex
	var got [][]byte
	b.SetHandler(func(p []byte) {
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
	})
	if err := a.Send("b", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	})
	mu.Lock()
	if string(got[0]) != "hi" {
		t.Errorf("payload = %q", got[0])
	}
	mu.Unlock()
}

func TestMemNetworkUnknownAddr(t *testing.T) {
	net := NewMemNetwork()
	a := net.NewTransport("a")
	if err := a.Send("ghost", []byte("x")); !errors.Is(err, ErrUnknownAddr) {
		t.Errorf("err = %v", err)
	}
}

func TestMemNetworkDuplicateAddr(t *testing.T) {
	net := NewMemNetwork()
	net.NewTransport("dup")
	if _, err := net.AddTransport("dup"); !errors.Is(err, ErrDuplicateAddr) {
		t.Errorf("err = %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewTransport duplicate did not panic")
		}
	}()
	net.NewTransport("dup")
}

func TestMemTransportClose(t *testing.T) {
	net := NewMemNetwork()
	a := net.NewTransport("a")
	b := net.NewTransport("b")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
	// Sends to a closed/unregistered endpoint fail with unknown addr.
	if err := a.Send("b", []byte("x")); !errors.Is(err, ErrUnknownAddr) {
		t.Errorf("err = %v", err)
	}
	// Sends from a closed endpoint fail.
	if err := b.Send("a", []byte("x")); !errors.Is(err, ErrTransportClosed) {
		t.Errorf("err = %v", err)
	}
}

func TestMemNetworkPayloadIsolation(t *testing.T) {
	net := NewMemNetwork()
	a := net.NewTransport("a")
	b := net.NewTransport("b")
	var mu sync.Mutex
	var got []byte
	b.SetHandler(func(p []byte) {
		mu.Lock()
		got = p
		mu.Unlock()
	})
	buf := []byte("mutable")
	if err := a.Send("b", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X' // sender mutates after Send
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got != nil
	})
	mu.Lock()
	if string(got) != "mutable" {
		t.Errorf("receiver saw sender mutation: %q", got)
	}
	mu.Unlock()
}

func TestMemNetworkLossRate(t *testing.T) {
	net := NewMemNetwork()
	a := net.NewTransport("a")
	b := net.NewTransport("b")
	var mu sync.Mutex
	count := 0
	b.SetHandler(func(p []byte) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	net.SetLossRate(0.5)
	const total = 1000
	for i := 0; i < total; i++ {
		_ = a.Send("b", []byte{1})
	}
	time.Sleep(200 * time.Millisecond)
	mu.Lock()
	got := count
	mu.Unlock()
	if got < 400 || got > 600 {
		t.Errorf("received %d of %d with 50%% loss", got, total)
	}
	// Clamping.
	net.SetLossRate(-1)
	net.SetLossRate(2)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never satisfied")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
