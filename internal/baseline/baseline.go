// Package baseline implements the three alternative dissemination
// algorithms daMulticast is compared against in §VI-E, on the same
// simnet kernel and with the same underlying membership assumptions
// (partial views of size (b+1)·ln(S)):
//
//	(a) gossip-based broadcast — one global group; every event is
//	    broadcast to everyone with fanout ln(n)+c (parasites galore);
//	(b) gossip-based multicast — one group per topic containing its
//	    subscribers and the subscribers of every supertopic; events of
//	    Ti gossip within group(Ti) only (no parasites, heavy memory);
//	(c) hierarchical gossip-based broadcast — the two-level scheme of
//	    [10]: interest-agnostic small groups with intra-group fanout
//	    ln(m)+c1 and inter-group fanout ln(N)+c2 (parasites again).
//
// Each baseline measures the §VI-E comparison quantities: total event
// messages, delivery fraction among interested processes, parasite
// deliveries, and per-process memory (membership table entries).
package baseline

import (
	"errors"
	"fmt"
	"math/rand"

	"damulticast/internal/ids"
	"damulticast/internal/scenario"
	"damulticast/internal/simnet"
	"damulticast/internal/topic"
	"damulticast/internal/xrand"
)

// Population describes the subscriber populations per topic, mirroring
// sim.GroupSpec but decoupled so baselines stay independent.
type Population struct {
	Topic topic.Topic
	Size  int
}

// Config parameterizes a baseline run.
type Config struct {
	// Populations lists processes by the single topic each is
	// interested in.
	Populations []Population
	// PublishTopic is the published event's topic.
	PublishTopic topic.Topic
	// B sizes membership views: (B+1)·ln(group size).
	B float64
	// C is the gossip fanout constant (c for (a)/(b); c1=c2=C for (c)).
	C float64
	// PSucc is the channel success probability.
	PSucc float64
	// AliveFraction of processes are alive (stillborn model).
	AliveFraction float64
	// NumGroups is the hierarchical scheme's N (ignored by (a),(b)).
	NumGroups int
	// MaxRounds bounds the run.
	MaxRounds int
	// Seed drives randomness.
	Seed int64
	// Workers is the simnet shard count (0 = GOMAXPROCS). Results are
	// identical for every value: all randomness flows through per-node
	// or setup-only streams derived from Seed.
	Workers int
	// Schedule injects mid-run faults (crash waves, flash crowds,
	// partitions, loss bursts, stragglers) in the vocabulary the
	// simulator applies, so head-to-head figures hand both sides the
	// same value. Events apply between rounds, in Round order.
	Schedule []scenario.Event
}

// Errors.
var (
	ErrNoPopulation = errors.New("baseline: empty population")
	ErrBadPSucc     = errors.New("baseline: PSucc must be in (0,1]")
	ErrBadAlive     = errors.New("baseline: AliveFraction must be in [0,1]")
	ErrNoPublisher  = errors.New("baseline: no alive process interested in publish topic")
	ErrBadGroups    = errors.New("baseline: NumGroups must be >= 1")
)

func (c Config) validate() error {
	if len(c.Populations) == 0 {
		return ErrNoPopulation
	}
	for _, p := range c.Populations {
		if p.Size < 1 {
			return fmt.Errorf("baseline: population %s has size %d", p.Topic, p.Size)
		}
	}
	if c.PSucc <= 0 || c.PSucc > 1 {
		return fmt.Errorf("%w: %g", ErrBadPSucc, c.PSucc)
	}
	if c.AliveFraction < 0 || c.AliveFraction > 1 {
		return fmt.Errorf("%w: %g", ErrBadAlive, c.AliveFraction)
	}
	if err := checkSchedule(c.Schedule); err != nil {
		return fmt.Errorf("baseline: schedule: %w", err)
	}
	return nil
}

// Result reports a baseline run's measurements.
type Result struct {
	// Messages is the total number of event messages sent.
	Messages int64
	// InterestedDelivered / InterestedTotal measure reliability among
	// alive processes whose topic includes the published topic.
	InterestedDelivered int
	InterestedTotal     int
	// Parasites counts deliveries to processes NOT interested in the
	// event (their topic does not include the publish topic).
	Parasites int64
	// MaxMemory is the largest per-process membership table total
	// (entries) across all processes — the §VI-E.2 comparison value.
	MaxMemory int
	// Rounds ran before quiescence.
	Rounds int
}

// Reliability returns the fraction of interested alive processes
// reached.
func (r *Result) Reliability() float64 {
	if r.InterestedTotal == 0 {
		return 0
	}
	return float64(r.InterestedDelivered) / float64(r.InterestedTotal)
}

// bEvent is the event payload circulated by all baselines.
type bEvent struct {
	id    ids.EventID
	topic topic.Topic
}

// bNode is a generic gossip node: on first reception it forwards the
// event to a sample of each of its views.
type bNode struct {
	id    ids.ProcessID
	port  simnet.Port
	rng   *rand.Rand
	topic topic.Topic // the topic this node is interested in

	// views are the node's membership tables: a name (for memory
	// accounting) plus the pool and per-event fanout.
	views []bView

	seen      map[ids.EventID]bool
	delivered int
	parasites int
}

type bView struct {
	pool   []ids.ProcessID
	fanout int
}

func (n *bNode) ID() ids.ProcessID { return n.id }
func (n *bNode) Tick()             {}

func (n *bNode) HandleMessage(msg any) {
	ev, ok := msg.(bEvent)
	if !ok {
		return
	}
	if n.seen[ev.id] {
		return
	}
	n.seen[ev.id] = true
	if n.topic.Includes(ev.topic) {
		n.delivered++
	} else {
		n.parasites++
	}
	n.forward(ev)
}

func (n *bNode) forward(ev bEvent) {
	for _, v := range n.views {
		for _, target := range xrand.SampleIDs(n.rng, v.pool, v.fanout) {
			if target != n.id {
				n.port.Send(target, ev)
			}
		}
	}
}

func (n *bNode) memory() int {
	total := 0
	for _, v := range n.views {
		total += len(v.pool)
	}
	return total
}

// world is the shared construction state of all three baselines.
type world struct {
	cfg   Config
	net   *simnet.Network
	nodes []*bNode
	// byTopic indexes nodes by their interest.
	byTopic map[topic.Topic][]*bNode
	msgs    int64

	// Dedicated deterministic streams: views draws membership tables
	// (setup only), publish picks the publisher, sched picks fault
	// targets between rounds. Keeping them separate — and giving every
	// node its own stream — makes runs reproducible under the simnet
	// worker-invariance contract: no draw order depends on another
	// consumer's position in a shared stream.
	views   *rand.Rand
	publish *rand.Rand
	sched   *rand.Rand
}

func newWorld(cfg Config) (*world, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	w := &world{
		cfg:     cfg,
		net:     simnet.New(cfg.Seed),
		byTopic: make(map[topic.Topic][]*bNode),
		views:   xrand.NewStream(cfg.Seed, "baseline:views"),
		publish: xrand.NewStream(cfg.Seed, "baseline:publish"),
		sched:   xrand.NewStream(cfg.Seed, "baseline:schedule"),
	}
	w.net.PSucc = cfg.PSucc
	w.net.Workers = cfg.Workers
	w.net.OnSend = func(env simnet.Envelope, dropped bool) {
		if _, ok := env.Msg.(bEvent); ok {
			w.msgs++
		}
	}
	for _, pop := range cfg.Populations {
		for i := 0; i < pop.Size; i++ {
			id := ids.ProcessID(fmt.Sprintf("%s#%d", pop.Topic, i))
			n := &bNode{
				id:    id,
				rng:   xrand.NewStream(cfg.Seed, "bnode:"+string(id)),
				topic: pop.Topic,
				seen:  make(map[ids.EventID]bool),
			}
			w.nodes = append(w.nodes, n)
			w.byTopic[pop.Topic] = append(w.byTopic[pop.Topic], n)
			if err := w.net.AddNode(n); err != nil {
				return nil, err
			}
			n.port = w.net.Port(id)
		}
	}
	// Stillborn failures, uniformly across the whole population.
	rng := xrand.NewStream(cfg.Seed, "baseline:failures")
	nFail := int(float64(len(w.nodes)) * (1 - cfg.AliveFraction))
	perm := rng.Perm(len(w.nodes))
	for i := 0; i < nFail; i++ {
		if err := w.net.Crash(w.nodes[perm[i]].id); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// publishAndRun picks an alive publisher interested in PublishTopic,
// injects the event, runs to quiescence (or until the schedule and
// MaxRounds are exhausted) and collects the result. Schedule events
// with Round r apply after r rounds have run — round-0 events land
// before the initial forward, so stragglers and partitions shape the
// first fanout exactly as they do in the sim scenario runner.
func (w *world) publishAndRun() (*Result, error) {
	cfg := w.cfg
	var pubs []*bNode
	for _, n := range w.byTopic[cfg.PublishTopic] {
		if !w.net.Down(n.id) {
			pubs = append(pubs, n)
		}
	}
	if len(pubs) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoPublisher, cfg.PublishTopic)
	}
	pub := pubs[w.publish.Intn(len(pubs))]
	ev := bEvent{id: ids.EventID{Origin: pub.id, Seq: 1}, topic: cfg.PublishTopic}

	events := scenario.Sorted(cfg.Schedule)

	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 500
	}
	ei := 0
	for ei < len(events) && events[ei].Round <= 0 {
		w.applySchedule(events[ei])
		ei++
	}

	pub.seen[ev.id] = true
	pub.delivered++ // publisher trivially has the event
	pub.forward(ev)

	rounds := 0
	for rounds < maxRounds {
		if w.net.Pending() == 0 && ei >= len(events) {
			break
		}
		w.net.Step()
		rounds++
		for ei < len(events) && events[ei].Round <= rounds {
			w.applySchedule(events[ei])
			ei++
		}
	}

	res := &Result{Messages: w.msgs, Rounds: rounds}
	for _, n := range w.nodes {
		if m := n.memory(); m > res.MaxMemory {
			res.MaxMemory = m
		}
		res.Parasites += int64(n.parasites)
		if w.net.Down(n.id) {
			continue
		}
		if n.topic.Includes(cfg.PublishTopic) {
			res.InterestedTotal++
			if n.delivered > 0 {
				res.InterestedDelivered++
			}
		}
	}
	return res, nil
}

// allIDs collects ids of the given nodes.
func allIDs(nodes []*bNode) []ids.ProcessID {
	out := make([]ids.ProcessID, len(nodes))
	for i, n := range nodes {
		out[i] = n.id
	}
	return out
}

// sampleView builds a membership view for one node: up to cap distinct
// members of pool, excluding self.
func sampleView(rng *rand.Rand, pool []ids.ProcessID, self ids.ProcessID, cap int) []ids.ProcessID {
	return xrand.SampleExcluding(rng, pool, cap, map[ids.ProcessID]struct{}{self: {}})
}
