package damulticast

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// liveParams speeds the protocol up for tests.
func liveParams() Params {
	p := DefaultParams()
	p.ShufflePeriod = 1
	p.MaintainPeriod = 2
	p.FindSuperPeriod = 2
	return p
}

// startNode stands up one hub over tr with one subscription to tp —
// the single-topic process these live tests drive. The subscription's
// random stream is seeded from the address alone (not address +
// topic, Join's default), so every test keeps the stream it was tuned
// with. The hub is stopped at cleanup.
func startNode(t testing.TB, tr Transport, tp string, params Params, tick time.Duration, opts ...JoinOption) *Subscription {
	t.Helper()
	h, err := NewHub(tr, WithParams(params), WithTickInterval(tick))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Stop() })
	addr := tr.Addr()
	seed := int64(len(addr))*7919 + hashString(addr)
	sub, err := h.Join(context.Background(), tp, append([]JoinOption{WithSeed(seed)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewHub(nil); !errors.Is(err, ErrNoTransport) {
		t.Errorf("err = %v", err)
	}
	net := NewMemNetwork()
	hub, err := NewHub(net.NewTransport("x1"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Stop() })
	ctx := context.Background()
	if _, err := hub.Join(ctx, "bad"); err == nil {
		t.Error("bad topic accepted")
	}
	// Super topic must strictly include the topic.
	if _, err := hub.Join(ctx, ".a.b", WithSuperContacts(".zzz", "y")); err == nil {
		t.Error("unrelated super topic accepted")
	}
	if _, err := hub.Join(ctx, ".a.b", WithSuperContacts("not-a-topic", "y")); err == nil {
		t.Error("invalid super topic accepted")
	}
	// Invalid params bubble up.
	bad := DefaultParams()
	bad.Z = -1
	if _, err := hub.Join(ctx, ".a", WithParams(bad)); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestNodeDefaultsIDFromTransport(t *testing.T) {
	net := NewMemNetwork()
	sub := startNode(t, net.NewTransport("addr-7"), ".a", Params{}, 0)
	if id := sub.hub.ID(); id != "addr-7" {
		t.Errorf("ID = %s", id)
	}
	if sub.Topic() != ".a" {
		t.Errorf("Topic = %s", sub.Topic())
	}
}

func TestNodeLifecycle(t *testing.T) {
	net := NewMemNetwork()
	sub := startNode(t, net.NewTransport("n1"), ".a", Params{}, 0)
	ctx := context.Background()
	id, err := sub.Publish(ctx, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Error("empty event id")
	}
	if err := sub.hub.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := sub.hub.Stop(); err != nil {
		t.Errorf("repeated Stop = %v", err)
	}
	if _, err := sub.Publish(ctx, nil); !errors.Is(err, ErrNotRunning) {
		t.Errorf("Publish after Stop = %v", err)
	}
	// Events channel is closed after Stop.
	select {
	case _, open := <-sub.Events():
		if open {
			t.Error("event received after stop")
		}
	case <-time.After(time.Second):
		t.Error("events channel not closed")
	}
}

func TestNodeContextCancelStops(t *testing.T) {
	net := NewMemNetwork()
	ctx, cancel := context.WithCancel(context.Background())
	hub, err := NewHub(net.NewTransport("nc"), WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Stop() })
	sub, err := hub.Join(context.Background(), ".a")
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case _, open := <-sub.Events():
		if open {
			t.Error("unexpected event")
		}
	case <-time.After(2 * time.Second):
		t.Error("hub did not stop on context cancel")
	}
}

// startCluster builds one group of n single-topic hubs fully meshed
// via group contacts, plus optional super contacts.
func startCluster(t *testing.T, net *MemNetwork, tp string, names []string, superTopic string, superContacts []string) []*Subscription {
	t.Helper()
	var subs []*Subscription
	for _, name := range names {
		others := make([]string, 0, len(names)-1)
		for _, o := range names {
			if o != name {
				others = append(others, o)
			}
		}
		opts := []JoinOption{WithGroupContacts(others...)}
		if len(superContacts) > 0 {
			opts = append(opts, WithSuperContacts(superTopic, superContacts...))
		}
		subs = append(subs, startNode(t, net.NewTransport(name), tp, liveParams(), 20*time.Millisecond, opts...))
	}
	return subs
}

func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

func TestLiveGroupDissemination(t *testing.T) {
	net := NewMemNetwork()
	nodes := startCluster(t, net, ".chat", names("c", 8), "", nil)

	id, err := nodes[0].Publish(context.Background(), []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes[1:] {
		select {
		case ev := <-n.Events():
			if ev.ID != id {
				t.Errorf("node %s got event %s, want %s", n.hub.ID(), ev.ID, id)
			}
			if ev.Topic != ".chat" {
				t.Errorf("topic = %s", ev.Topic)
			}
			if string(ev.Payload) != "hello" {
				t.Errorf("payload = %q", ev.Payload)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("node %s never received the event", n.hub.ID())
		}
	}
}

func TestLiveEventClimbsToSupergroup(t *testing.T) {
	net := NewMemNetwork()
	supers := startCluster(t, net, ".news", names("s", 4), "", nil)
	superNames := names("s", 4)

	// Publisher group with pSel forced to 1 for test determinism.
	pubParams := liveParams()
	pubParams.G = 1 << 20
	pubParams.A = float64(pubParams.Z) // pA = 1
	var pubs []*Subscription
	for _, name := range names("p", 3) {
		others := make([]string, 0, 2)
		for _, o := range names("p", 3) {
			if o != name {
				others = append(others, o)
			}
		}
		pubs = append(pubs, startNode(t, net.NewTransport(name), ".news.sports", pubParams, 20*time.Millisecond,
			WithGroupContacts(others...), WithSuperContacts(".news", superNames...)))
	}

	id, err := pubs[0].Publish(context.Background(), []byte("goal"))
	if err != nil {
		t.Fatal(err)
	}
	// Every .news subscriber must receive the .news.sports event.
	for _, s := range supers {
		select {
		case ev := <-s.Events():
			if ev.ID != id || ev.Topic != ".news.sports" {
				t.Errorf("super %s got %+v", s.hub.ID(), ev)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("super %s never received the climbed event", s.hub.ID())
		}
	}
}

func TestLiveBootstrapViaSeeds(t *testing.T) {
	net := NewMemNetwork()
	supers := startCluster(t, net, ".news", names("b", 3), "", nil)

	// A joiner knows only seeds (the supergroup members), not its
	// supergroup: FIND_SUPER_CONTACT must locate them.
	j := startNode(t, net.NewTransport("joiner"), ".news.tech", liveParams(), 20*time.Millisecond,
		WithSeeds(names("b", 3)...))

	// Wait for the supertopic table to initialize, then publish; the
	// event must reach a .news subscriber.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("bootstrap never completed")
		}
		time.Sleep(50 * time.Millisecond)
		// Probe: publish and see if any super receives within a tick.
		if _, err := j.Publish(context.Background(), []byte("probe")); err != nil {
			t.Fatal(err)
		}
		select {
		case <-supers[0].Events():
			return // success
		case <-supers[1].Events():
			return
		case <-supers[2].Events():
			return
		case <-time.After(200 * time.Millisecond):
		}
	}
}

func TestNodeLeave(t *testing.T) {
	net := NewMemNetwork()
	nodes := startCluster(t, net, ".room", names("l", 4), "", nil)
	ctx := context.Background()

	// One subscription leaves gracefully; peers purge it, and the
	// leaver cannot publish anymore.
	if err := nodes[3].Leave(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[3].Publish(ctx, nil); !errors.Is(err, ErrNotRunning) {
		t.Errorf("publish after leave = %v", err)
	}
	// A leave on a stopped hub errors.
	stopped := startNode(t, net.NewTransport("stopped"), ".x", Params{}, 0)
	if err := stopped.hub.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := stopped.Leave(ctx); !errors.Is(err, ErrNotRunning) {
		t.Errorf("leave after stop = %v", err)
	}
	// Remaining subscriptions still disseminate among themselves.
	id, err := nodes[0].Publish(ctx, []byte("still here"))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes[1:3] {
		select {
		case ev := <-n.Events():
			if ev.ID != id {
				t.Errorf("node %s got %s", n.hub.ID(), ev.ID)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("node %s never received after peer left", n.hub.ID())
		}
	}
}

func TestDroppedDeliveriesCounted(t *testing.T) {
	net := NewMemNetwork()
	// Buffer of 1: flooding publishes from a peer overflows it.
	sub := startNode(t, net.NewTransport("slow"), ".x", liveParams(), 0, WithEventBuffer(1))
	pub := startNode(t, net.NewTransport("fast"), ".x", liveParams(), 10*time.Millisecond,
		WithGroupContacts("slow"))

	for i := 0; i < 50; i++ {
		if _, err := pub.Publish(context.Background(), []byte("flood")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for sub.Stats().DroppedDeliveries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no drops recorded despite overflow")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
