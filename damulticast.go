// Package damulticast is a Go implementation of Data-Aware Multicast
// (daMulticast) — the decentralized, gossip-based multicast protocol
// for hierarchical topic-based publish/subscribe of Baehni, Eugster
// and Guerraoui (EPFL TR IC/2003/73, DSN 2004).
//
// Subscribers are interested in topics of a dotted hierarchy (e.g.
// ".news.sports.football") and transitively receive events published
// on their topic or any of its subtopics. Members of a topic group
// self-organize by gossip, link each group to its supergroup with a
// constant-size supertopic table, gossip events within groups (fanout
// ln(S)+c) and push them up the hierarchy probabilistically. No
// process ever receives an event of a topic it is not interested in,
// no central broker exists, and memory per subscription is bounded by
// ln(S) + c + z regardless of the hierarchy's size.
//
// The public API is the Hub: one transport endpoint hosting any
// number of topic subscriptions over a single socket (the wire
// protocol demultiplexes groups per frame). A minimal
// publisher/subscriber pair over the in-memory transport:
//
//	net := damulticast.NewMemNetwork()
//	sub, _ := damulticast.NewHub(net.NewTransport("sub"))
//	news, _ := sub.Join(ctx, ".news")
//	pub, _ := damulticast.NewHub(net.NewTransport("pub"))
//	sports, _ := pub.Join(ctx, ".news.sports",
//	    damulticast.WithSuperContacts(".news", "sub"))
//	sports.Publish(ctx, []byte("goal!"))
//	ev := <-news.Events() // the event climbs to the supergroup
//
// The same protocol engine also powers the round-based simulator that
// regenerates the paper's figures: `go run ./cmd/damcsim -fig all`
// prints them as CSV, and the README describes each one.
package damulticast

import (
	"errors"

	"damulticast/internal/core"
)

// Params are the protocol constants; see the package documentation and
// the paper's §V. The zero value is invalid; start from DefaultParams.
type Params = core.Params

// RecoveryStats are a subscription's anti-entropy recovery counters;
// see SubscriptionStats.Recovery.
type RecoveryStats = core.RecoveryStats

// DefaultParams returns the paper's simulation constants (§VII-A):
// b=3, c=5, g=5, a=1, z=3.
func DefaultParams() Params { return core.DefaultParams() }

// Event is a delivered application event.
type Event struct {
	// ID is the globally unique event identifier ("origin#seq").
	ID string
	// Topic is the topic the event was published on (always included
	// by the receiving subscription's topic).
	Topic string
	// Payload is the application payload.
	Payload []byte
}

// Errors. All configuration and lifecycle failures are typed sentinels
// (possibly wrapped with detail); match with errors.Is.
var (
	// ErrNoTransport rejects construction without a Transport.
	ErrNoTransport = errors.New("damulticast: config needs a Transport")
	// ErrNotRunning reports an operation on a hub that is not (or no
	// longer) running.
	ErrNotRunning = errors.New("damulticast: hub not running")
	// ErrInvalidTopic rejects a malformed topic.
	ErrInvalidTopic = errors.New("damulticast: invalid topic")
	// ErrInvalidSuperTopic rejects a supertopic that is malformed or
	// does not strictly include the subscribed topic.
	ErrInvalidSuperTopic = errors.New("damulticast: invalid super topic")
	// ErrDuplicateTopic rejects joining a topic the hub is already
	// subscribed to.
	ErrDuplicateTopic = errors.New("damulticast: already subscribed to topic")
)
