package damulticast

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Race-detector coverage for the live path: concurrent publishers,
// subscribers draining delivery channels, background protocol ticks
// and transport goroutines all running at once, over both the
// in-memory fabric and real TCP. These tests assert behavior loosely —
// their real job is to fail under `go test -race` if any shared state
// on the publish/subscribe path is unsynchronized.

// raceParams disables maintenance randomness-heavy periods but keeps a
// fast tick so the protocol loop competes with publishers.
func raceParams() Params {
	p := DefaultParams()
	p.ShufflePeriod = 1
	p.MaintainPeriod = 2
	return p
}

// TestRaceConcurrentPublishSubscribeMem hammers a fully-meshed
// in-memory group from many goroutines: every node publishes
// concurrently while every node's Events channel is drained, with
// protocol ticks running throughout.
func TestRaceConcurrentPublishSubscribeMem(t *testing.T) {
	const nodes = 5
	const pubsPerNode = 20

	net := NewMemNetwork()
	addrs := make([]string, nodes)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("n%d", i)
	}
	peers := func(self int) []string {
		out := make([]string, 0, nodes-1)
		for i, a := range addrs {
			if i != self {
				out = append(out, a)
			}
		}
		return out
	}

	all := make([]*Subscription, nodes)
	ctx := context.Background()
	for i := range all {
		all[i] = startNode(t, net.NewTransport(addrs[i]), ".race", raceParams(), time.Millisecond,
			WithGroupContacts(peers(i)...))
	}

	var delivered atomic.Int64
	var wg sync.WaitGroup
	for _, n := range all {
		wg.Add(1)
		go func(n *Subscription) {
			defer wg.Done()
			for range n.Events() {
				delivered.Add(1)
			}
		}(n)
	}

	var pubs sync.WaitGroup
	for i, n := range all {
		pubs.Add(1)
		go func(i int, n *Subscription) {
			defer pubs.Done()
			for j := 0; j < pubsPerNode; j++ {
				if _, err := n.Publish(ctx, []byte(fmt.Sprintf("p%d-%d", i, j))); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
			}
		}(i, n)
	}
	pubs.Wait()

	// Let gossip settle, then concurrently stop everything (Stop races
	// with in-flight transport deliveries by design).
	time.Sleep(50 * time.Millisecond)
	var stops sync.WaitGroup
	for _, n := range all {
		stops.Add(1)
		go func(n *Subscription) {
			defer stops.Done()
			if err := n.hub.Stop(); err != nil {
				t.Errorf("stop: %v", err)
			}
		}(n)
	}
	stops.Wait()
	wg.Wait()

	if delivered.Load() == 0 {
		t.Error("no deliveries across the mesh")
	}
}

// TestRaceConcurrentPublishSubscribeTCP runs publishers and
// subscribers concurrently over real TCP transports, including a
// concurrent Leave while traffic flows.
func TestRaceConcurrentPublishSubscribeTCP(t *testing.T) {
	const nodes = 3
	trs := make([]*TCPTransport, nodes)
	for i := range trs {
		tr, err := NewTCPTransport("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
	}
	peers := func(self int) []string {
		out := make([]string, 0, nodes-1)
		for i, tr := range trs {
			if i != self {
				out = append(out, tr.Addr())
			}
		}
		return out
	}

	all := make([]*Subscription, nodes)
	ctx := context.Background()
	for i := range all {
		all[i] = startNode(t, trs[i], ".race.tcp", raceParams(), time.Millisecond,
			WithGroupContacts(peers(i)...))
	}

	var delivered atomic.Int64
	var drains sync.WaitGroup
	for _, n := range all {
		drains.Add(1)
		go func(n *Subscription) {
			defer drains.Done()
			for range n.Events() {
				delivered.Add(1)
			}
		}(n)
	}

	var pubs sync.WaitGroup
	for i := 0; i < nodes-1; i++ {
		n := all[i]
		pubs.Add(1)
		go func(i int, n *Subscription) {
			defer pubs.Done()
			for j := 0; j < 10; j++ {
				if _, err := n.Publish(ctx, []byte(fmt.Sprintf("t%d-%d", i, j))); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
			}
		}(i, n)
	}
	// The last node leaves mid-traffic: departure races with inbound
	// frames and outbound dials.
	pubs.Add(1)
	go func() {
		defer pubs.Done()
		last := all[nodes-1]
		if _, err := last.Publish(ctx, []byte("bye")); err != nil {
			t.Errorf("publish: %v", err)
		}
		if err := last.Leave(ctx); err != nil {
			t.Errorf("leave: %v", err)
		}
		if err := last.hub.Stop(); err != nil {
			t.Errorf("stop: %v", err)
		}
	}()
	pubs.Wait()

	waitFor(t, func() bool { return delivered.Load() > 0 })
	for i := 0; i < nodes-1; i++ {
		if err := all[i].hub.Stop(); err != nil {
			t.Errorf("stop: %v", err)
		}
	}
	drains.Wait()
}

// TestRaceMemNetworkSendClose races frame delivery against endpoint
// closure and loss-rate mutation on the shared fabric.
func TestRaceMemNetworkSendClose(t *testing.T) {
	net := NewMemNetwork()
	a := net.NewTransport("a")
	b := net.NewTransport("b")
	b.SetHandler(func([]byte) {})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			_ = a.Send("b", []byte{byte(i)})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			net.SetLossRate(float64(i%2) * 0.5)
		}
	}()
	go func() {
		defer wg.Done()
		time.Sleep(time.Millisecond)
		_ = b.Close()
	}()
	wg.Wait()
}
