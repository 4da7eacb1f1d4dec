package damulticast

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"damulticast/internal/core"
)

// drainTopics collects events from a subscription until n arrive or
// the deadline passes, failing on any event of an unexpected topic —
// the cross-group isolation assertion.
func drainTopics(t *testing.T, sub *Subscription, n int, wantTopic string) []Event {
	t.Helper()
	var got []Event
	deadline := time.After(10 * time.Second)
	for len(got) < n {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				t.Fatalf("%s: events channel closed after %d/%d events", sub.Topic(), len(got), n)
			}
			if ev.Topic != wantTopic {
				t.Fatalf("%s: received event of topic %s — cross-group leak", sub.Topic(), ev.Topic)
			}
			got = append(got, ev)
		case <-deadline:
			t.Fatalf("%s: only %d/%d events arrived", sub.Topic(), len(got), n)
		}
	}
	return got
}

// TestHubTwoSubscriptionsOneTCPTransport is the acceptance gate for
// the multiplexing tentpole: a single TCPTransport hosts two
// subscriptions on different topics, and events published on each
// topic reach only that topic's group — over one shared socket.
func TestHubTwoSubscriptionsOneTCPTransport(t *testing.T) {
	mk := func() *TCPTransport {
		tr, err := NewTCPTransport("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	trHub, trAlpha, trBeta := mk(), mk(), mk()

	hub, err := NewHub(trHub, WithParams(liveParams()), WithTickInterval(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Stop() })

	ctx := context.Background()
	alphaSub, err := hub.Join(ctx, ".alpha")
	if err != nil {
		t.Fatal(err)
	}
	betaSub, err := hub.Join(ctx, ".beta")
	if err != nil {
		t.Fatal(err)
	}

	// Two single-topic peers, each in one of the hub's groups,
	// reaching the hub through its one shared listen socket.
	alphaPeer, err := NewHub(trAlpha, WithParams(liveParams()), WithTickInterval(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = alphaPeer.Stop() })
	alphaPub, err := alphaPeer.Join(ctx, ".alpha", WithGroupContacts(trHub.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	betaPeer, err := NewHub(trBeta, WithParams(liveParams()), WithTickInterval(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = betaPeer.Stop() })
	betaPub, err := betaPeer.Join(ctx, ".beta", WithGroupContacts(trHub.Addr()))
	if err != nil {
		t.Fatal(err)
	}

	const each = 5
	for i := 0; i < each; i++ {
		if _, err := alphaPub.Publish(ctx, []byte(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := betaPub.Publish(ctx, []byte(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	drainTopics(t, alphaSub, each, ".alpha")
	drainTopics(t, betaSub, each, ".beta")
}

// TestHubLateJoinRecoveryThroughSharedSocket: a hub already busy with
// one subscription joins a second topic after that group's event was
// published; the anti-entropy exchange pulls the missed event through
// the same shared TCP socket the first subscription is using.
func TestHubLateJoinRecoveryThroughSharedSocket(t *testing.T) {
	params := liveParams()
	params.RecoverPeriod = 1
	params.RecoverMaxAge = 100000 // the store must outlive test scheduling

	trHolder, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	trLate, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	holder, err := NewHub(trHolder, WithParams(params), WithTickInterval(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = holder.Stop() })
	room, err := holder.Join(ctx, ".room")
	if err != nil {
		t.Fatal(err)
	}

	late, err := NewHub(trLate, WithParams(params), WithTickInterval(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = late.Stop() })
	// The late hub's socket is already carrying another group's
	// subscription before it joins .room.
	if _, err := late.Join(ctx, ".other"); err != nil {
		t.Fatal(err)
	}

	// Publish while the late hub is not in .room yet: this event can
	// only ever reach it through recovery.
	missedID, err := room.Publish(ctx, []byte("you missed this"))
	if err != nil {
		t.Fatal(err)
	}

	lateRoom, err := late.Join(ctx, ".room", WithGroupContacts(trHolder.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-lateRoom.Events():
		if ev.ID != missedID {
			t.Fatalf("late subscription got %s, want %s", ev.ID, missedID)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("late subscription never recovered the missed event")
	}
	if st := lateRoom.Stats(); st.Recovery.Recovered != 1 {
		t.Errorf("late recovery stats = %+v, want exactly 1 recovered", st.Recovery)
	}
}

// gateTransport wedges its Send until released, so tests can hold the
// hub's loop inside a send mid-publish deterministically.
type gateTransport struct {
	addr    string
	entered chan struct{} // one tick per Send that started blocking
	release chan struct{} // closed to unblock all Sends
}

func newGateTransport(addr string) *gateTransport {
	return &gateTransport{
		addr:    addr,
		entered: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
}

func (t *gateTransport) Addr() string { return t.addr }
func (t *gateTransport) Send(addr string, payload []byte) error {
	select {
	case t.entered <- struct{}{}:
	default:
	}
	<-t.release
	return nil
}
func (t *gateTransport) SetHandler(func(payload []byte)) {}
func (t *gateTransport) Close() error                    { return nil }

// TestHubPublishContextCancelMidFlight: with the hub's loop wedged
// inside a transport send (a stalled peer), a Publish whose context is
// cancelled returns promptly with ctx.Err() instead of hanging until
// the peer unwedges — the context-aware lifecycle gate.
func TestHubPublishContextCancelMidFlight(t *testing.T) {
	tr := newGateTransport("gate")
	hub, err := NewHub(tr, WithParams(liveParams()), WithTickInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	// Root topic: no bootstrap search fires at join (which would walk
	// into the gate before any publish); the gossip fan-out to the
	// group contact is what wedges the loop.
	sub, err := hub.Join(context.Background(), ".", WithGroupContacts("peer"))
	if err != nil {
		t.Fatal(err)
	}

	// First publish: the loop walks into the gated Send and stays
	// there.
	firstDone := make(chan error, 1)
	go func() {
		_, err := sub.Publish(context.Background(), []byte("wedge"))
		firstDone <- err
	}()
	select {
	case <-tr.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("loop never entered the gated send")
	}

	// Second publish cannot be accepted while the loop is wedged; its
	// context cancellation must release it promptly.
	ctx, cancel := context.WithCancel(context.Background())
	secondDone := make(chan error, 1)
	go func() {
		_, err := sub.Publish(ctx, []byte("cancel me"))
		secondDone <- err
	}()
	cancel()
	select {
	case err := <-secondDone:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled publish err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled publish did not return while the loop was wedged")
	}

	// Release the gate: the wedged publish completes normally.
	close(tr.release)
	select {
	case err := <-firstDone:
		if err != nil {
			t.Errorf("wedged publish err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wedged publish never completed after release")
	}
	if err := hub.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestPublishReplySlotsNotReusedAfterCancel guards the pooled publish
// reply slots: a publish that gives up on its deadline may leave the
// loop's reply to land in its slot later, so that slot must never serve
// another publish. Eight publishers race random 0–50 µs deadlines
// against the loop; every id Publish does return must be unique, and
// every id the peer delivers must carry the payload it was published
// with — a stale reply handed to a later publish breaks one or both.
// The publishers can outrun the peer's inbox, whose overflow drops
// frames and counts them (Stats.OverflowFrames), so an id may go
// undelivered only if the peer counted at least as many drops as there
// are undelivered ids. Run under -race.
func TestPublishReplySlotsNotReusedAfterCancel(t *testing.T) {
	const publishers = 8
	const perPublisher = 200
	net := NewMemNetwork()
	var hubs []*Hub
	join := func(addr, contact string, opts ...JoinOption) *Subscription {
		h, err := NewHub(net.NewTransport(addr), WithParams(liveParams()), WithTickInterval(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		hubs = append(hubs, h)
		sub, err := h.Join(context.Background(), ".", append(opts, WithGroupContacts(contact))...)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	// A reply landing in a slot that already holds a stale one blocks
	// the loop for good, so stopping is bounded: failing beats hanging.
	defer func() {
		stopped := make(chan struct{})
		go func() {
			for _, h := range hubs {
				_ = h.Stop()
			}
			close(stopped)
		}()
		select {
		case <-stopped:
		case <-time.After(5 * time.Second):
			t.Error("hubs did not stop: a loop is wedged writing a publish reply")
		}
	}()
	pub := join("pub", "peer")
	peer := join("peer", "pub", WithOverflow(Block))

	var mu sync.Mutex
	delivered := make(map[string]string)
	go func() {
		for ev := range peer.Events() {
			mu.Lock()
			delivered[ev.ID] = string(ev.Payload)
			mu.Unlock()
		}
	}()

	published := make([]map[string]string, publishers)
	var wg sync.WaitGroup
	for g := range published {
		published[g] = make(map[string]string)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for j := 0; j < perPublisher; j++ {
				payload := fmt.Sprintf("g%d-%d", g, j)
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(r.Intn(51))*time.Microsecond)
				id, err := pub.Publish(ctx, []byte(payload))
				cancel()
				if err == nil {
					published[g][id] = payload
				}
			}
		}(g)
	}
	wg.Wait()

	want := make(map[string]string)
	for _, got := range published {
		for id, payload := range got {
			if prev, dup := want[id]; dup {
				t.Fatalf("id %s returned for both %q and %q", id, prev, payload)
			}
			want[id] = payload
		}
	}
	t.Logf("%d of %d publishes returned an id", len(want), publishers*perPublisher)
	peerHub := hubs[1]
	deadline := time.Now().Add(10 * time.Second)
	prevMissing, steady := -1, 0
	for {
		mu.Lock()
		missing, wrong := 0, ""
		for id, payload := range want {
			got, ok := delivered[id]
			switch {
			case !ok:
				missing++
			case got != payload:
				wrong = fmt.Sprintf("id %s delivered with %q, published with %q", id, got, payload)
			}
		}
		mu.Unlock()
		if wrong != "" {
			t.Fatal(wrong)
		}
		if missing == 0 {
			return
		}
		// Undelivered ids are settled once none has arrived for 200 ms.
		if missing == prevMissing {
			steady++
		} else {
			prevMissing, steady = missing, 0
		}
		dropped := peerHub.Stats().OverflowFrames
		if steady >= 20 && int64(missing) <= dropped {
			t.Logf("%d of %d returned ids undelivered, %d frames dropped by the peer's overflow", missing, len(want), dropped)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d returned ids never delivered by the peer, which counted only %d overflow drops", missing, len(want), dropped)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHubStopWithInflightPublishes is the graceful-shutdown ordering
// gate: publishers hammering two subscriptions while the hub stops
// must all return promptly, with a published id or a clean lifecycle
// error — run under -race, this also proves the shutdown path shares
// no unsynchronized state with the publish path.
func TestHubStopWithInflightPublishes(t *testing.T) {
	for round := 0; round < 10; round++ {
		net := NewMemNetwork()
		hub, err := NewHub(net.NewTransport("hub"),
			WithParams(liveParams()), WithTickInterval(time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		subA, err := hub.Join(ctx, ".a")
		if err != nil {
			t.Fatal(err)
		}
		subB, err := hub.Join(ctx, ".b")
		if err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		for _, sub := range []*Subscription{subA, subB} {
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(s *Subscription) {
					defer wg.Done()
					for {
						if _, err := s.Publish(ctx, []byte("spin")); err != nil {
							if !errors.Is(err, ErrNotRunning) && !errors.Is(err, core.ErrStopped) {
								t.Errorf("publish error = %v", err)
							}
							return
						}
					}
				}(sub)
			}
		}
		time.Sleep(time.Duration(round%3) * time.Millisecond)
		if err := hub.Stop(); err != nil {
			t.Fatal(err)
		}
		wg.Wait() // hangs here if shutdown can strand a publisher
		for _, sub := range []*Subscription{subA, subB} {
			if _, open := <-sub.Events(); open {
				// Drain until close; a buffered event before the close
				// is fine.
				for range sub.Events() {
				}
			}
		}
	}
}

// TestHubStopWithStalledTCPPeer: a TCP peer that accepts connections
// but never reads must cost frames, not liveness. Once the kernel's
// socket buffers to it fill, Publish must still return and Stop must
// still finish — Stop waits for the hub loop, so a Send that blocks on
// the stalled socket would hang both. The timeout only detects that
// hang.
func TestHubStopWithStalledTCPPeer(t *testing.T) {
	stall, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			c, err := stall.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		_ = stall.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			_ = c.Close()
		}
	})

	tr, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewHub(tr, WithTickInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := hub.Join(context.Background(), ".stall", WithGroupContacts(stall.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 60<<10)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 2000; i++ {
			if _, err := sub.Publish(context.Background(), payload); err != nil {
				done <- fmt.Errorf("publish %d: %w", i, err)
				return
			}
		}
		done <- hub.Stop()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Publish or Stop hung behind a peer that stopped reading")
	}
}

// TestHubLeaveIsolation: leaving one subscription leaves the other
// subscription's gossip undisturbed — every event published in the
// surviving group after the leave still arrives, counted exactly.
func TestHubLeaveIsolation(t *testing.T) {
	net := NewMemNetwork()
	ctx := context.Background()
	mkHub := func(addr string) *Hub {
		h, err := NewHub(net.NewTransport(addr),
			WithParams(liveParams()), WithTickInterval(10*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = h.Stop() })
		return h
	}
	hub := mkHub("hub")
	subA, err := hub.Join(ctx, ".a", WithGroupContacts("peerA"))
	if err != nil {
		t.Fatal(err)
	}
	subB, err := hub.Join(ctx, ".b", WithGroupContacts("peerB"))
	if err != nil {
		t.Fatal(err)
	}

	peerA := mkHub("peerA")
	peerAPub, err := peerA.Join(ctx, ".a", WithGroupContacts("hub"))
	if err != nil {
		t.Fatal(err)
	}
	peerB := mkHub("peerB")
	peerBPub, err := peerB.Join(ctx, ".b", WithGroupContacts("hub"))
	if err != nil {
		t.Fatal(err)
	}

	// Both groups work before the leave.
	if _, err := peerAPub.Publish(ctx, []byte("pre-a")); err != nil {
		t.Fatal(err)
	}
	if _, err := peerBPub.Publish(ctx, []byte("pre-b")); err != nil {
		t.Fatal(err)
	}
	drainTopics(t, subA, 1, ".a")
	drainTopics(t, subB, 1, ".b")

	if err := subA.Leave(ctx); err != nil {
		t.Fatal(err)
	}
	// The left subscription's channel closes; a second leave reports
	// not running.
	if _, open := <-subA.Events(); open {
		t.Error("left subscription still delivering")
	}
	if err := subA.Leave(ctx); !errors.Is(err, ErrNotRunning) {
		t.Errorf("second Leave = %v, want ErrNotRunning", err)
	}
	if _, err := subA.Publish(ctx, nil); !errors.Is(err, ErrNotRunning) {
		t.Errorf("publish after leave = %v, want ErrNotRunning", err)
	}

	// The surviving subscription still receives every event of its
	// group, exactly once each.
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := peerBPub.Publish(ctx, []byte(fmt.Sprintf("post-b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := drainTopics(t, subB, n, ".b")
	seen := make(map[string]bool, len(got))
	for _, ev := range got {
		if seen[ev.ID] {
			t.Errorf("event %s delivered twice", ev.ID)
		}
		seen[ev.ID] = true
	}
	// The hub's stats show exactly one live subscription.
	st := hub.Stats()
	if len(st.Subscriptions) != 1 || st.Subscriptions[0].Topic != ".b" {
		t.Errorf("Stats().Subscriptions = %+v, want only .b", st.Subscriptions)
	}
}

// TestHubJoinValidation covers the typed join errors.
func TestHubJoinValidation(t *testing.T) {
	net := NewMemNetwork()
	hub, err := NewHub(net.NewTransport("h"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Stop() })
	ctx := context.Background()

	if _, err := hub.Join(ctx, "not-a-topic"); !errors.Is(err, ErrInvalidTopic) {
		t.Errorf("bad topic err = %v, want ErrInvalidTopic", err)
	}
	if _, err := hub.Join(ctx, ".a.b", WithSuperContacts("nope", "x")); !errors.Is(err, ErrInvalidSuperTopic) {
		t.Errorf("bad super topic err = %v, want ErrInvalidSuperTopic", err)
	}
	if _, err := hub.Join(ctx, ".a.b", WithSuperContacts(".zzz", "x")); !errors.Is(err, ErrInvalidSuperTopic) {
		t.Errorf("unrelated super topic err = %v, want ErrInvalidSuperTopic", err)
	}
	if _, err := hub.Join(ctx, ".a"); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Join(ctx, ".a"); !errors.Is(err, ErrDuplicateTopic) {
		t.Errorf("duplicate join err = %v, want ErrDuplicateTopic", err)
	}
	// NewHub without a transport fails with the typed sentinel.
	if _, err := NewHub(nil); !errors.Is(err, ErrNoTransport) {
		t.Errorf("nil transport err = %v, want ErrNoTransport", err)
	}
}

// TestHubContextLifecycle: a hub built WithContext stops when the
// context is cancelled, and every subscription's channel closes.
func TestHubContextLifecycle(t *testing.T) {
	net := NewMemNetwork()
	ctx, cancel := context.WithCancel(context.Background())
	hub, err := NewHub(net.NewTransport("h"), WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
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
	if _, err := sub.Publish(context.Background(), nil); !errors.Is(err, ErrNotRunning) {
		t.Errorf("publish after ctx stop = %v", err)
	}
	// Join on a stopped hub reports not running.
	if _, err := hub.Join(context.Background(), ".b"); !errors.Is(err, ErrNotRunning) {
		t.Errorf("join after stop = %v, want ErrNotRunning", err)
	}
	_ = hub.Stop()
}

// TestHubWriteMetrics: the Prometheus text dump carries the hub-level
// counters and one labeled sample per subscription.
func TestHubWriteMetrics(t *testing.T) {
	net := NewMemNetwork()
	hub, err := NewHub(net.NewTransport("h"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Stop() })
	ctx := context.Background()
	if _, err := hub.Join(ctx, ".news"); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Join(ctx, ".market"); err != nil {
		t.Fatal(err)
	}
	// Provoke a malformed-frame count through the receive path.
	hub.onRaw([]byte("garbage"))

	var b strings.Builder
	if err := hub.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE damulticast_malformed_frames_total counter",
		"damulticast_malformed_frames_total 1",
		"damulticast_subscriptions 2",
		`damulticast_dropped_deliveries_total{topic=".market"} 0`,
		`damulticast_dropped_deliveries_total{topic=".news"} 0`,
		`damulticast_dropped_newest_total{topic=".news"} 0`,
		`damulticast_dropped_oldest_total{topic=".news"} 0`,
		`damulticast_recovered_events_total{topic=".news"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
	st := hub.Stats()
	if st.MalformedFrames != 1 {
		t.Errorf("MalformedFrames = %d, want 1", st.MalformedFrames)
	}
	if len(st.Subscriptions) != 2 {
		t.Errorf("Subscriptions = %+v", st.Subscriptions)
	}
}
