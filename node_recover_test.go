package damulticast

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"damulticast/internal/core"
	"damulticast/internal/wire"
)

// TestRacePublishDuringStop is the liveness gate for Publish and
// Leave racing Stop: every publisher must return promptly — with a
// published id, ErrNotRunning, or core.ErrStopped — no matter how the
// shutdown interleaves. The reply/ack waits are guarded by the hub's
// done channel (see Subscription.publish); this hammer keeps that
// guarantee from regressing if the loop's channel discipline ever
// changes.
func TestRacePublishDuringStop(t *testing.T) {
	ctx := context.Background()
	for round := 0; round < 25; round++ {
		net := NewMemNetwork()
		sub := startNode(t, net.NewTransport("solo"), ".x", liveParams(), time.Millisecond)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if _, err := sub.Publish(ctx, []byte("spin")); err != nil {
						// ErrNotRunning when the hub stopped first or
						// the loop serviced the publish after Leave
						// stopped the process.
						if !errors.Is(err, ErrNotRunning) && !errors.Is(err, core.ErrStopped) {
							t.Errorf("publish error = %v", err)
						}
						return
					}
				}
			}()
		}
		// A concurrent Leave-then-Stop exercises the same shutdown race
		// on the ack channel.
		wg.Add(1)
		go func() {
			defer wg.Done()
			if sub.Leave(ctx) == nil {
				_ = sub.hub.Stop()
			}
		}()
		time.Sleep(time.Duration(rand.Intn(3)) * time.Millisecond)
		if err := sub.hub.Stop(); err != nil {
			t.Fatal(err)
		}
		wg.Wait() // deadlocks here without the done-channel escape
	}
}

// TestDroppedFramesCounted feeds the receive path garbage and floods
// the inbox of a stopped loop: both loss classes must be counted and
// surfaced by Stats instead of vanishing silently.
func TestDroppedFramesCounted(t *testing.T) {
	net := NewMemNetwork()
	hub, err := NewHub(net.NewTransport("sink"))
	if err != nil {
		t.Fatal(err)
	}
	// A stopped hub's loop no longer drains the inbox, so the overflow
	// count below is exact.
	if err := hub.Stop(); err != nil {
		t.Fatal(err)
	}

	// Malformed frames: the receive callback rejects anything whose
	// routing prefix (version, type, dest) doesn't parse — wrong
	// version byte, legacy JSON, truncation inside the prefix, empty.
	// (Frames with a valid prefix but broken body are counted too, at
	// the loop's full decode; TestGarbageFramesOverTransport covers
	// that end to end.)
	valid, err := wire.EncodeMessage(&core.Message{Type: core.MsgPing, From: "peer", FromTopic: ".x"})
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range [][]byte{
		[]byte("complete garbage"),
		[]byte(`{"Type":1}`),
		valid[:1],
		{},
	} {
		hub.onRaw(frame)
	}
	if got := hub.Stats().MalformedFrames; got != 4 {
		t.Errorf("MalformedFrames = %d, want 4", got)
	}

	// Overflow: filling the undrained inbox past capacity must count
	// overflow drops.
	overflow := cap(hub.inbox) + 7
	for i := 0; i < overflow; i++ {
		hub.onRaw(valid)
	}
	stats := hub.Stats()
	if stats.OverflowFrames != 7 {
		t.Errorf("OverflowFrames = %d, want 7", stats.OverflowFrames)
	}
	if stats.MalformedFrames != 4 {
		t.Errorf("Stats().MalformedFrames = %d, want 4", stats.MalformedFrames)
	}
	if got, want := stats.MalformedFrames+stats.OverflowFrames, int64(4+7); got != want {
		t.Errorf("dropped frames = %d, want %d", got, want)
	}
}

// TestGarbageFramesOverTransport covers the same counter end-to-end: a
// peer speaking garbage over the shared fabric is counted, not
// crashed on, and the hub keeps working.
func TestGarbageFramesOverTransport(t *testing.T) {
	net := NewMemNetwork()
	sub := startNode(t, net.NewTransport("victim"), ".x", liveParams(), time.Millisecond)

	attacker := net.NewTransport("attacker")
	for i := 0; i < 5; i++ {
		if err := attacker.Send("victim", []byte("\x7fnot a frame")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for sub.hub.Stats().MalformedFrames < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("malformed frames = %d, want 5", sub.hub.Stats().MalformedFrames)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := sub.Publish(context.Background(), []byte("still alive")); err != nil {
		t.Errorf("hub unusable after garbage: %v", err)
	}
}

// TestLiveRecoveryPullsMissedEvent: a subscription that joins after a
// publication pulls the missed event from a group mate's store via the
// anti-entropy exchange — delivery of an event that was never sent to
// it.
func TestLiveRecoveryPullsMissedEvent(t *testing.T) {
	params := liveParams()
	params.RecoverPeriod = 1
	params.RecoverMaxAge = 100000 // the store must outlive test scheduling
	net := NewMemNetwork()

	holder := startNode(t, net.NewTransport("holder"), ".room", params, 5*time.Millisecond)

	// Publish while the late joiner does not exist yet: this event can
	// only ever reach it through recovery.
	missedID, err := holder.Publish(context.Background(), []byte("you missed this"))
	if err != nil {
		t.Fatal(err)
	}

	late := startNode(t, net.NewTransport("late"), ".room", params, 5*time.Millisecond,
		WithGroupContacts("holder"))

	select {
	case ev := <-late.Events():
		if ev.ID != missedID {
			t.Fatalf("late node got %s, want %s", ev.ID, missedID)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("late node never recovered the missed event")
	}
	// The event may arrive via either recovery path: pushed directly in
	// answer to the late node's empty digest (no request drawn), or
	// pulled after the holder's digest exposed the gap (one request).
	if st := late.Stats().Recovery; st.Recovered != 1 {
		t.Errorf("late recovery stats = %+v, want exactly 1 recovered", st)
	}
}
