package damulticast

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"damulticast/internal/invariant"
)

// twoHubPair wires a publisher and a subscriber hub for one topic over
// a shared MemNetwork, the subscriber joined with the given options.
func twoHubPair(t *testing.T, topicStr string, subOpts ...JoinOption) (pub, sub *Subscription) {
	t.Helper()
	net := NewMemNetwork()
	ctx := context.Background()
	subHub, err := NewHub(net.NewTransport("sub"), WithParams(liveParams()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = subHub.Stop() })
	sub, err = subHub.Join(ctx, topicStr, subOpts...)
	if err != nil {
		t.Fatal(err)
	}
	pubHub, err := NewHub(net.NewTransport("pub"), WithParams(liveParams()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pubHub.Stop() })
	pub, err = pubHub.Join(ctx, topicStr, WithGroupContacts("sub"))
	if err != nil {
		t.Fatal(err)
	}
	return pub, sub
}

// payloads builds n distinct payloads "e0".."e<n-1>".
func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("e%d", i))
	}
	return out
}

// TestPublishBatchRoundTrip: a batch publish returns one id per
// payload, in publish order with sequential sequence numbers, and
// every event reaches a group peer exactly once.
func TestPublishBatchRoundTrip(t *testing.T) {
	pub, sub := twoHubPair(t, ".batch")
	ctx := context.Background()

	if got, err := pub.PublishBatch(ctx, nil); got != nil || err != nil {
		t.Errorf("empty batch = (%v, %v), want (nil, nil)", got, err)
	}
	const n = 20
	eventIDs, err := pub.PublishBatch(ctx, payloads(n))
	if err != nil {
		t.Fatal(err)
	}
	if len(eventIDs) != n {
		t.Fatalf("got %d ids, want %d", len(eventIDs), n)
	}
	// Ids are this publisher's, with consecutive sequence numbers (the
	// counter may not start at 1: bootstrap request ids share it).
	var first uint64
	if _, err := fmt.Sscanf(eventIDs[0], "pub#%d", &first); err != nil {
		t.Fatalf("id[0] = %q: %v", eventIDs[0], err)
	}
	for i, id := range eventIDs {
		if want := fmt.Sprintf("pub#%d", first+uint64(i)); id != want {
			t.Errorf("id[%d] = %s, want %s", i, id, want)
		}
	}
	got := make(map[string]bool)
	for _, ev := range drainTopics(t, sub, n, ".batch") {
		if got[ev.ID] {
			t.Errorf("event %s delivered twice", ev.ID)
		}
		got[ev.ID] = true
	}
}

// TestOverflowDropNewest: under the default policy a full Events
// channel keeps the unread backlog and discards arrivals, counted as
// DroppedNewest.
func TestOverflowDropNewest(t *testing.T) {
	pub, sub := twoHubPair(t, ".x", WithEventBuffer(4))
	if _, err := pub.PublishBatch(context.Background(), payloads(20)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sub.Stats().DroppedDeliveries == 16 })
	st := sub.Stats()
	if st.Overflow != DropNewest {
		t.Errorf("policy = %v, want DropNewest", st.Overflow)
	}
	if st.DroppedNewest != 16 || st.DroppedOldest != 0 {
		t.Errorf("drops = newest %d / oldest %d, want 16 / 0", st.DroppedNewest, st.DroppedOldest)
	}
	// The survivors are the OLDEST four: e0..e3.
	for i, ev := range drainTopics(t, sub, 4, ".x") {
		if want := fmt.Sprintf("e%d", i); string(ev.Payload) != want {
			t.Errorf("kept[%d] = %q, want %q", i, ev.Payload, want)
		}
	}
}

// TestOverflowDropOldest: the DropOldest policy evicts the unread
// backlog instead, keeping a latest-wins window.
func TestOverflowDropOldest(t *testing.T) {
	pub, sub := twoHubPair(t, ".x", WithEventBuffer(4), WithOverflow(DropOldest))
	if _, err := pub.PublishBatch(context.Background(), payloads(20)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sub.Stats().DroppedDeliveries == 16 })
	st := sub.Stats()
	if st.Overflow != DropOldest {
		t.Errorf("policy = %v, want DropOldest", st.Overflow)
	}
	if st.DroppedOldest != 16 || st.DroppedNewest != 0 {
		t.Errorf("drops = newest %d / oldest %d, want 0 / 16", st.DroppedNewest, st.DroppedOldest)
	}
	// The survivors are the NEWEST four: e16..e19.
	for i, ev := range drainTopics(t, sub, 4, ".x") {
		if want := fmt.Sprintf("e%d", 16+i); string(ev.Payload) != want {
			t.Errorf("kept[%d] = %q, want %q", i, ev.Payload, want)
		}
	}
}

// TestOverflowBlock: the Block policy is lossless — a slow consumer
// stalls delivery instead of shedding it, and every event eventually
// arrives with nothing counted dropped.
func TestOverflowBlock(t *testing.T) {
	pub, sub := twoHubPair(t, ".x", WithEventBuffer(2), WithOverflow(Block))
	const n = 12
	if _, err := pub.PublishBatch(context.Background(), payloads(n)); err != nil {
		t.Fatal(err)
	}
	// Consume slowly; the hub loop blocks between reads rather than
	// dropping.
	var got []Event
	for len(got) < n {
		select {
		case ev := <-sub.Events():
			got = append(got, ev)
			time.Sleep(time.Millisecond)
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d/%d events arrived", len(got), n)
		}
	}
	for i, ev := range got {
		if want := fmt.Sprintf("e%d", i); string(ev.Payload) != want {
			t.Errorf("event[%d] = %q, want %q", i, ev.Payload, want)
		}
	}
	if d := sub.Stats().DroppedDeliveries; d != 0 {
		t.Errorf("Block policy dropped %d deliveries", d)
	}
}

// TestHubFairnessHotCold is the starvation gate for the demux
// redesign: one subscription's topic being flooded must not starve a
// cold sibling subscription on the same hub — the round-robin drain
// guarantees the cold topic's frames their quantum, and the drops the
// flood does cause land where the policy says they land.
func TestHubFairnessHotCold(t *testing.T) {
	net := NewMemNetwork()
	ctx := context.Background()

	hub, err := NewHub(net.NewTransport("h"), WithParams(liveParams()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Stop() })
	// The hot subscription gets a tiny buffer nobody reads: its drops
	// are expected, counted, and must stay on the hot topic.
	hot, err := hub.Join(ctx, ".hot", WithEventBuffer(8))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := hub.Join(ctx, ".cold", WithEventBuffer(64))
	if err != nil {
		t.Fatal(err)
	}

	hotHub, err := NewHub(net.NewTransport("hotpub"), WithParams(liveParams()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hotHub.Stop() })
	hotPub, err := hotHub.Join(ctx, ".hot", WithGroupContacts("h"))
	if err != nil {
		t.Fatal(err)
	}
	coldHub, err := NewHub(net.NewTransport("coldpub"), WithParams(liveParams()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coldHub.Stop() })
	coldPub, err := coldHub.Join(ctx, ".cold", WithGroupContacts("h"))
	if err != nil {
		t.Fatal(err)
	}

	// Flood the hot topic from a background goroutine for the whole
	// duration of the cold publishes.
	floodCtx, stopFlood := context.WithCancel(ctx)
	floodDone := make(chan struct{})
	var flooded atomic.Int64
	go func() {
		defer close(floodDone)
		burst := payloads(64)
		for floodCtx.Err() == nil {
			ids, err := hotPub.PublishBatch(floodCtx, burst)
			if err != nil {
				return
			}
			flooded.Add(int64(len(ids)))
		}
	}()
	t.Cleanup(func() { stopFlood(); <-floodDone })
	// Let the flood get rolling before the cold traffic starts, so the
	// cold events genuinely contend with it.
	waitFor(t, func() bool { return flooded.Load() >= 64 })

	// Publish on the cold topic mid-flood; every event must get
	// through promptly.
	const coldEvents = 30
	for i := 0; i < coldEvents; i++ {
		if _, err := coldPub.Publish(ctx, []byte(fmt.Sprintf("cold-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := drainTopics(t, cold, coldEvents, ".cold")
	if len(got) != coldEvents {
		t.Fatalf("cold topic starved: %d/%d delivered", len(got), coldEvents)
	}
	stopFlood()
	<-floodDone
	if flooded.Load() < 64 {
		t.Fatalf("flood never got going: %d events", flooded.Load())
	}

	// Drop accounting matches the policy: the unread hot subscription
	// dropped (newest, its policy's side), the cold one dropped
	// nothing.
	waitFor(t, func() bool { return hot.Stats().DroppedNewest > 0 })
	if st := cold.Stats(); st.DroppedDeliveries != 0 {
		t.Errorf("cold subscription dropped %d deliveries", st.DroppedDeliveries)
	}
	if st := hot.Stats(); st.DroppedOldest != 0 {
		t.Errorf("hot subscription counted %d oldest-drops under DropNewest", st.DroppedOldest)
	}
}

// TestFrameQueueSteadyStorage: a backlog that never empties — one push
// and one pop per step, for a million steps — keeps FIFO order,
// allocates nothing once the ring has grown to the backlog's depth,
// and never holds more than maxQueuedFrames slots, even when pushed
// to the bound.
func TestFrameQueueSteadyStorage(t *testing.T) {
	frames := make([][]byte, 3*maxQueuedFrames)
	for i := range frames {
		frames[i] = []byte{byte(i), byte(i >> 8)}
	}
	var q frameQueue
	pushed, popped := 0, 0
	for ; pushed < maxQueuedFrames; pushed++ {
		if !q.push(frames[pushed%len(frames)], maxQueuedFrames) {
			t.Fatalf("push %d refused below the bound", pushed)
		}
	}
	if q.push(frames[0], maxQueuedFrames) {
		t.Fatal("push past the bound accepted")
	}
	for ; popped < maxQueuedFrames/2; popped++ {
		q.pop()
	}
	misordered := 0
	step := func() {
		q.push(frames[pushed%len(frames)], maxQueuedFrames)
		pushed++
		if got := q.pop(); &got[0] != &frames[popped%len(frames)][0] {
			misordered++
		}
		popped++
	}
	invariant.SteadyStorage(t, 1_000_000, step)
	if misordered != 0 {
		t.Errorf("%d frames popped out of FIFO order", misordered)
	}
	if q.len() != maxQueuedFrames/2 {
		t.Errorf("backlog = %d, want %d", q.len(), maxQueuedFrames/2)
	}
	if len(q.ring) > maxQueuedFrames {
		t.Errorf("ring holds %d slots, bound %d", len(q.ring), maxQueuedFrames)
	}
}

func BenchmarkFrameQueuePushPop(b *testing.B) {
	frame := []byte{1}
	var q frameQueue
	for range maxQueuedFrames / 2 {
		q.push(frame, maxQueuedFrames)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.push(frame, maxQueuedFrames)
		q.pop()
	}
}
