// Package chaos soaks the live Hub/TCP stack under seeded fault
// schedules. Unlike the round-driven simulations of internal/sim, a
// chaos run stands up N real daMulticast endpoints in one OS process —
// each a Hub over its own TCP listener — publishes multi-topic
// traffic, and injects faults from a deterministic internal/scenario
// schedule: crash waves that kill endpoints and flash crowds that
// restart them, network partitions and heals, loss bursts. The
// run's Report grades the cluster against a delivery SLO (what
// fraction of the published events reached every surviving subscriber
// by the end of the settle window) with per-fault-type snapshots of
// the hubs' own counters.
//
// The schedule is deterministic (scenario.GenSchedule is a pure
// function of its seed) but the run itself is wall-clock concurrent
// code over real sockets — the harness asserts outcomes (SLOs), not
// traces.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"damulticast"
	"damulticast/internal/scenario"
	"damulticast/internal/topic"
	"damulticast/internal/xrand"
)

// Config parameterizes one chaos run.
type Config struct {
	// Endpoints is how many hubs the run stands up (>= 2).
	Endpoints int
	// Topics are the flat topics endpoints subscribe to: endpoint i
	// joins Topics[i%len], and every third endpoint additionally joins
	// the next topic (multi-topic multiplexing over one socket).
	Topics []string
	// Seed roots every random decision: hub protocol seeds, fault
	// target sampling, publisher election.
	Seed int64
	// Tick is the hubs' protocol tick interval (default 15ms).
	Tick time.Duration
	// Step is the wall-clock length of one schedule step (default
	// 8 * Tick).
	Step time.Duration
	// Settle is how long the cluster runs after the last scheduled
	// step before delivery is graded — the live analogue of "within R
	// rounds of the heal" (default 2s).
	Settle time.Duration
	// Recovery enables the anti-entropy recovery plane on every
	// subscription. Without it, events lost to a fault stay lost.
	Recovery bool
	// Hierarchy declares Topics as a root-path chain (each topic
	// strictly includes the next). Endpoints then join exactly one
	// group, each group's joins are wired to the group above via super
	// contacts, and delivery is graded by topic inclusion: an event
	// published at the bottom is owed to every ancestor group too.
	Hierarchy bool
	// CrossRecovery additionally sends recovery digests along the
	// hierarchy's super/sub links, so a group that held zero copies of
	// an event can be re-ignited by its neighbors above and below.
	// Requires Recovery and Hierarchy.
	CrossRecovery bool
	// Schedule is the fault script (see scenario.GenSchedule for a
	// seeded one). An event of Round r applies at the start of step r;
	// soakKinds lists the kinds the soak applies.
	Schedule []scenario.Event
	// SLO is the target delivery fraction over surviving subscribers
	// in [0, 1]; the Report records whether the run met it.
	SLO float64
}

// Chaos configuration errors.
var (
	ErrBadConfig = errors.New("chaos: invalid config")
	ErrPublish   = errors.New("chaos: publish failed")
)

func (c Config) withDefaults() Config {
	if c.Tick <= 0 {
		c.Tick = 15 * time.Millisecond
	}
	if c.Step <= 0 {
		c.Step = 8 * c.Tick
	}
	if c.Settle <= 0 {
		c.Settle = 2 * time.Second
	}
	return c
}

func (c Config) validate() error {
	if c.Endpoints < 2 {
		return fmt.Errorf("%w: need >= 2 endpoints, got %d", ErrBadConfig, c.Endpoints)
	}
	if len(c.Topics) == 0 {
		return fmt.Errorf("%w: no topics", ErrBadConfig)
	}
	seen := make(map[string]bool, len(c.Topics))
	for _, t := range c.Topics {
		if _, err := topic.Parse(t); err != nil {
			return fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		if seen[t] {
			return fmt.Errorf("%w: duplicate topic %s", ErrBadConfig, t)
		}
		seen[t] = true
	}
	if c.Hierarchy {
		for i := 1; i < len(c.Topics); i++ {
			sup, sub := topic.Topic(c.Topics[i-1]), topic.Topic(c.Topics[i])
			if !sup.Includes(sub) || sup == sub {
				return fmt.Errorf("%w: hierarchy topics must be an ancestor chain, %s does not include %s",
					ErrBadConfig, sup, sub)
			}
		}
	}
	if c.CrossRecovery && (!c.Recovery || !c.Hierarchy) {
		return fmt.Errorf("%w: CrossRecovery requires Recovery and Hierarchy", ErrBadConfig)
	}
	if c.SLO < 0 || c.SLO > 1 {
		return fmt.Errorf("%w: SLO %g outside [0, 1]", ErrBadConfig, c.SLO)
	}
	if len(c.Schedule) == 0 {
		return fmt.Errorf("%w: empty schedule", ErrBadConfig)
	}
	return c.checkSchedule()
}

// soakKinds are the scenario kinds a soak applies: it has no straggler
// links and no group isolation.
var soakKinds = []scenario.Kind{
	scenario.Publish, scenario.CrashWave, scenario.FlashCrowd,
	scenario.Partition, scenario.Heal, scenario.LossBurst, scenario.LossRestore,
}

// checkSchedule rejects what the soak cannot apply. Crash waves and
// flash crowds count endpoints (a crash wave at least one; a flash
// crowd of 0 revives every down endpoint) rather than take a Fraction,
// and only they may target a topic, which must be one of Topics.
func (c Config) checkSchedule() error {
	if err := scenario.Validate(c.Schedule); err != nil {
		return err
	}
	for i, ev := range c.Schedule {
		var err error
		switch {
		case !slices.Contains(soakKinds, ev.Kind):
			err = fmt.Errorf("%w: the soak cannot apply %v", scenario.ErrKind, ev.Kind)
		case ev.Fraction != 0:
			err = fmt.Errorf("%w: the soak takes a Count, not a Fraction", scenario.ErrBadEvent)
		case ev.Kind == scenario.CrashWave && ev.Count < 1:
			err = fmt.Errorf("%w: crash-wave needs Count >= 1", scenario.ErrBadEvent)
		case ev.Topic != "" && ev.Kind != scenario.CrashWave && ev.Kind != scenario.FlashCrowd:
			err = fmt.Errorf("%w: only crash-wave and flash-crowd take a topic, not %v", scenario.ErrBadEvent, ev.Kind)
		case ev.Topic != "" && !slices.Contains(c.Topics, string(ev.Topic)):
			err = fmt.Errorf("%w: %s", scenario.ErrTopic, ev.Topic)
		}
		if err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// NetStats aggregates the cluster's counters — the hubs' own Stats()
// rolled up across every endpoint (including stopped generations) plus
// the fault fabric's drop counts.
type NetStats struct {
	// Recovered and Suppressed sum the subscriptions' anti-entropy
	// counters: events obtained through recovery, and pushes a peer's
	// bloom digest suppressed.
	Recovered  uint64
	Suppressed uint64
	// MalformedFrames, OverflowFrames, UnroutedFrames and
	// DroppedDeliveries sum the hubs' receive-path loss counters.
	MalformedFrames   int64
	OverflowFrames    int64
	UnroutedFrames    int64
	DroppedDeliveries int64
	// PartitionDrops and LossDrops count sends the fault fabric ate.
	PartitionDrops int64
	LossDrops      int64
}

// Report is the outcome of one chaos run.
type Report struct {
	// Published counts events published per topic.
	Published map[string]int
	// PerTopic is each topic's delivery fraction over its surviving
	// subscribers.
	PerTopic map[string]float64
	// Reliability is the overall delivered fraction over all
	// (event, surviving subscriber) pairs.
	Reliability float64
	// AliveEndpoints is how many endpoints were up at grading time.
	AliveEndpoints int
	// FaultCounts tallies applied events by scenario kind name.
	FaultCounts map[string]int
	// AfterFault snapshots the cluster counters right after the last
	// application of each fault kind.
	AfterFault map[string]NetStats
	// Final is the cluster counter snapshot at grading time.
	Final NetStats
	// Missing lists undelivered (endpoint, topic, event) pairs, capped
	// at 64 entries — enough to see who is starving without flooding
	// the report.
	Missing []string
	// MetSLO reports Reliability >= Config.SLO.
	MetSLO bool
}

// endpoint is one hub of the cluster, restartable at a stable address.
type endpoint struct {
	idx    int
	addr   string
	topics []string
	tr     *damulticast.TCPTransport
	hub    *damulticast.Hub
	subs   map[string]*damulticast.Subscription
	down   bool
	gen    int
}

type harness struct {
	cfg      Config
	ctrl     *netCtrl
	eps      []*endpoint
	faultRng *rand.Rand
	pubRng   *rand.Rand
	pubSeq   int
	wg       sync.WaitGroup

	mu        sync.Mutex
	delivered []map[string]map[string]bool // endpoint -> topic -> event ids
	published map[string][]string
	retired   NetStats // counters absorbed from stopped hub generations
}

// Run executes one chaos soak and grades it. The run is synchronous:
// it returns after the settle window with every endpoint stopped.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	h := &harness{
		cfg:       cfg,
		ctrl:      &netCtrl{},
		eps:       make([]*endpoint, cfg.Endpoints),
		faultRng:  xrand.NewStream(cfg.Seed, "chaos:faults"),
		pubRng:    xrand.NewStream(cfg.Seed, "chaos:publish"),
		delivered: make([]map[string]map[string]bool, cfg.Endpoints),
		published: make(map[string][]string, len(cfg.Topics)),
	}
	for i := range h.eps {
		h.eps[i] = &endpoint{idx: i, topics: memberTopics(i, cfg.Topics, cfg.Hierarchy)}
		h.delivered[i] = make(map[string]map[string]bool, len(cfg.Topics))
	}
	defer h.stopAll()

	// Phase 1: bind every listener so contact lists are complete before
	// any hub joins.
	for _, ep := range h.eps {
		tr, err := bindTCP("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ep.tr = tr
		ep.addr = tr.Addr()
	}
	// Phase 2: hubs and subscriptions.
	for i := range h.eps {
		if err := h.startHub(i); err != nil {
			return nil, err
		}
	}
	time.Sleep(2 * cfg.Tick)

	sched := scenario.Sorted(cfg.Schedule)
	report := &Report{
		Published:   make(map[string]int, len(cfg.Topics)),
		PerTopic:    make(map[string]float64, len(cfg.Topics)),
		FaultCounts: make(map[string]int),
		AfterFault:  make(map[string]NetStats),
	}
	maxStep := sched[len(sched)-1].Round
	fi := 0
	for step := 0; step <= maxStep; step++ {
		for fi < len(sched) && sched[fi].Round <= step {
			ev := sched[fi]
			if err := h.apply(ev); err != nil {
				return nil, err
			}
			report.FaultCounts[ev.Kind.String()]++
			report.AfterFault[ev.Kind.String()] = h.netStats()
			fi++
		}
		time.Sleep(cfg.Step)
	}
	time.Sleep(cfg.Settle)

	h.grade(report)
	return report, nil
}

// memberTopics assigns endpoint i its subscriptions: its home topic by
// round-robin, and for every third endpoint the next topic as well. In
// hierarchy mode every endpoint joins exactly one group — cross-group
// links come from super contacts, not multi-topic membership, and the
// twin soak's grading needs group membership to stay crisp.
func memberTopics(i int, topics []string, hierarchy bool) []string {
	out := []string{topics[i%len(topics)]}
	if !hierarchy && i%3 == 0 && len(topics) > 1 {
		out = append(out, topics[(i+1)%len(topics)])
	}
	return out
}

// bindTCP binds a listener, retrying briefly: a restart rebinding its
// old address can race the kernel's release of the previous socket.
func bindTCP(addr string) (*damulticast.TCPTransport, error) {
	var lastErr error
	for attempt := 0; attempt < 50; attempt++ {
		tr, err := damulticast.NewTCPTransport(addr)
		if err == nil {
			return tr, nil
		}
		lastErr = err
		time.Sleep(20 * time.Millisecond)
	}
	return nil, fmt.Errorf("chaos: bind %s: %w", addr, lastErr)
}

// params builds the hubs' protocol parameters. Membership never ages
// out (a partition must not dissolve the overlay into permanent
// islands) and super-table maintenance is off (flat runs have no
// hierarchy to maintain; hierarchy runs seed super tables at join).
func (h *harness) params() damulticast.Params {
	p := damulticast.DefaultParams()
	p.MaxAge = 1 << 20
	p.MaintainPeriod = 0
	if h.cfg.Recovery {
		p.RecoverPeriod = 2
		p.RecoverFanout = 3
		p.RecoverStoreCap = 2048
		p.RecoverMaxAge = 1 << 20
	}
	if h.cfg.CrossRecovery {
		p.CrossRecoverPeriod = 4
	}
	return p
}

// superTopic returns t's parent in the hierarchy chain, or "" when
// hierarchy mode is off or t is the chain's top.
func (h *harness) superTopic(t string) string {
	if !h.cfg.Hierarchy {
		return ""
	}
	for i := 1; i < len(h.cfg.Topics); i++ {
		if h.cfg.Topics[i] == t {
			return h.cfg.Topics[i-1]
		}
	}
	return ""
}

// contacts lists the other endpoints subscribed to t, by address.
func (h *harness) contacts(idx int, t string) []string {
	var out []string
	for _, ep := range h.eps {
		if ep.idx == idx {
			continue
		}
		for _, et := range ep.topics {
			if et == t {
				out = append(out, ep.addr)
				break
			}
		}
	}
	return out
}

// startHub builds endpoint idx's hub over its already-bound transport
// and joins its topics. Each generation derives a fresh protocol seed.
func (h *harness) startHub(idx int) error {
	ep := h.eps[idx]
	hub, err := damulticast.NewHub(
		&filteredTransport{inner: ep.tr, ctrl: h.ctrl},
		damulticast.WithSeed(xrand.SeedFor(h.cfg.Seed, fmt.Sprintf("hub:%d:gen:%d", idx, ep.gen))),
		damulticast.WithTickInterval(h.cfg.Tick),
		damulticast.WithParams(h.params()),
	)
	if err != nil {
		_ = ep.tr.Close()
		return err
	}
	ep.hub = hub
	ep.subs = make(map[string]*damulticast.Subscription, len(ep.topics))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, t := range ep.topics {
		opts := []damulticast.JoinOption{damulticast.WithGroupContacts(h.contacts(idx, t)...)}
		if sup := h.superTopic(t); sup != "" {
			// Hierarchy mode: seed the super table with the group above,
			// so events climb and cross-group recovery has links to walk.
			opts = append(opts, damulticast.WithSuperContacts(sup, h.contacts(idx, sup)...))
		}
		sub, err := hub.Join(ctx, t, opts...)
		if err != nil {
			_ = hub.Stop()
			return fmt.Errorf("chaos: endpoint %d join %s: %w", idx, t, err)
		}
		ep.subs[t] = sub
		h.drain(idx, sub)
	}
	ep.down = false
	return nil
}

// drain consumes one subscription's deliveries into the cumulative
// per-endpoint ledger (cumulative across restarts: like the paper's
// reliability accounting, a delivery before a crash still counts).
func (h *harness) drain(idx int, sub *damulticast.Subscription) {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		for ev := range sub.Events() {
			h.record(idx, ev.Topic, ev.ID)
		}
	}()
}

func (h *harness) record(idx int, tp, id string) {
	h.mu.Lock()
	m := h.delivered[idx][tp]
	if m == nil {
		m = make(map[string]bool)
		h.delivered[idx][tp] = m
	}
	m[id] = true
	h.mu.Unlock()
}

// subscribes reports whether the endpoint is assigned topic t (by the
// static assignment, which survives kills — a down endpoint keeps its
// topics for restart).
func subscribes(ep *endpoint, t topic.Topic) bool {
	return slices.Contains(ep.topics, string(t))
}

// apply executes one scheduled event.
func (h *harness) apply(ev scenario.Event) error {
	switch ev.Kind {
	case scenario.Publish:
		return h.publishAll()
	case scenario.CrashWave:
		var alive []*endpoint
		aliveTotal := 0
		for _, ep := range h.eps {
			if ep.down {
				continue
			}
			aliveTotal++
			if ev.Topic == "" || subscribes(ep, ev.Topic) {
				alive = append(alive, ep)
			}
		}
		n := ev.Count
		if n > len(alive) {
			n = len(alive)
		}
		if n >= aliveTotal {
			n = aliveTotal - 1 // never kill the whole cluster
		}
		perm := h.faultRng.Perm(len(alive))
		for i := 0; i < n; i++ {
			h.kill(alive[perm[i]])
		}
	case scenario.FlashCrowd:
		var down []*endpoint
		for _, ep := range h.eps {
			if ep.down && (ev.Topic == "" || subscribes(ep, ev.Topic)) {
				down = append(down, ep)
			}
		}
		n := ev.Count
		if n == 0 || n > len(down) {
			n = len(down)
		}
		perm := h.faultRng.Perm(len(down))
		for i := 0; i < n; i++ {
			if err := h.restart(down[perm[i]]); err != nil {
				return err
			}
		}
	case scenario.Partition:
		cells := make(map[string]int, len(h.eps))
		for _, ep := range h.eps {
			// Cell by endpoint stripe, deliberately not by topic parity:
			// every topic group must span cells for the partition to
			// bite.
			cells[ep.addr] = (ep.idx / len(h.cfg.Topics)) % ev.Cells
		}
		h.ctrl.setCells(cells)
	case scenario.Heal:
		h.ctrl.setCells(nil)
	case scenario.LossBurst:
		h.ctrl.setLoss(1 - ev.PSucc)
	case scenario.LossRestore:
		h.ctrl.setLoss(0)
	}
	return nil
}

// publishAll publishes one event per topic from a randomly elected
// alive subscriber. The publisher's own delivery is recorded here —
// Publish does not loop an event back to its origin.
func (h *harness) publishAll() error {
	for _, t := range h.cfg.Topics {
		var cands []*endpoint
		for _, ep := range h.eps {
			if !ep.down && ep.subs[t] != nil {
				cands = append(cands, ep)
			}
		}
		if len(cands) == 0 {
			continue // every subscriber of t is down right now
		}
		ep := cands[h.pubRng.Intn(len(cands))]
		h.pubSeq++
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		id, err := ep.subs[t].Publish(ctx, []byte(fmt.Sprintf("%s/%d", t, h.pubSeq)))
		cancel()
		if err != nil {
			return fmt.Errorf("%w: endpoint %d topic %s: %v", ErrPublish, ep.idx, t, err)
		}
		h.mu.Lock()
		h.published[t] = append(h.published[t], id)
		h.mu.Unlock()
		h.record(ep.idx, t, id)
	}
	return nil
}

// kill hard-stops an endpoint: its counters are absorbed first, then
// the hub goes down with its listener (peers see dead TCP, not a
// graceful leave).
func (h *harness) kill(ep *endpoint) {
	ep.down = true
	_ = ep.hub.Stop()
	h.absorb(ep.hub)
	ep.hub = nil
	ep.subs = nil
}

// restart revives a killed endpoint at its old address with a fresh
// hub generation (empty protocol state — whatever it missed is the
// recovery plane's problem).
func (h *harness) restart(ep *endpoint) error {
	tr, err := bindTCP(ep.addr)
	if err != nil {
		return err
	}
	ep.tr = tr
	ep.gen++
	return h.startHub(ep.idx)
}

// absorb folds a stopped hub's counters into the retired totals so
// NetStats spans every generation, dead or alive.
func (h *harness) absorb(hub *damulticast.Hub) {
	st := hub.Stats()
	h.mu.Lock()
	h.retired.MalformedFrames += st.MalformedFrames
	h.retired.OverflowFrames += st.OverflowFrames
	h.retired.UnroutedFrames += st.UnroutedFrames
	h.retired.DroppedDeliveries += st.DroppedDeliveries
	for _, ss := range st.Subscriptions {
		h.retired.Recovered += ss.Recovery.Recovered
		h.retired.Suppressed += ss.Recovery.Suppressed
	}
	h.mu.Unlock()
}

// netStats snapshots the cluster-wide counters: retired generations
// plus every live hub, plus the fault fabric's drops.
func (h *harness) netStats() NetStats {
	h.mu.Lock()
	ns := h.retired
	h.mu.Unlock()
	for _, ep := range h.eps {
		if ep.down || ep.hub == nil {
			continue
		}
		st := ep.hub.Stats()
		ns.MalformedFrames += st.MalformedFrames
		ns.OverflowFrames += st.OverflowFrames
		ns.UnroutedFrames += st.UnroutedFrames
		ns.DroppedDeliveries += st.DroppedDeliveries
		for _, ss := range st.Subscriptions {
			ns.Recovered += ss.Recovery.Recovered
			ns.Suppressed += ss.Recovery.Suppressed
		}
	}
	ns.PartitionDrops, ns.LossDrops = h.ctrl.drops()
	return ns
}

// owed reports whether a surviving endpoint must have delivered events
// published on t: its own group in flat mode, and in hierarchy mode any
// subscribed ancestor group too — events flow up, so every group above
// the publish topic is owed a copy.
func (h *harness) owed(ep *endpoint, t string) bool {
	if ep.subs[t] != nil {
		return true
	}
	if !h.cfg.Hierarchy {
		return false
	}
	for st := range ep.subs {
		if topic.Topic(st).Includes(topic.Topic(t)) {
			return true
		}
	}
	return false
}

// grade fills the report's delivery verdict: for every topic, what
// fraction of (event, surviving subscriber) pairs were delivered.
func (h *harness) grade(r *Report) {
	r.Final = h.netStats()
	var got, total int
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, t := range h.cfg.Topics {
		evs := h.published[t]
		r.Published[t] = len(evs)
		var tGot, tTotal int
		for _, ep := range h.eps {
			if ep.down || !h.owed(ep, t) {
				continue
			}
			tTotal += len(evs)
			for _, id := range evs {
				if h.delivered[ep.idx][t][id] {
					tGot++
				} else if len(r.Missing) < 64 {
					r.Missing = append(r.Missing, fmt.Sprintf("ep%d %s %s", ep.idx, t, id))
				}
			}
		}
		if tTotal > 0 {
			r.PerTopic[t] = float64(tGot) / float64(tTotal)
		}
		got += tGot
		total += tTotal
	}
	for _, ep := range h.eps {
		if !ep.down {
			r.AliveEndpoints++
		}
	}
	if total > 0 {
		r.Reliability = float64(got) / float64(total)
	}
	r.MetSLO = r.Reliability >= h.cfg.SLO
}

// stopAll tears the cluster down and waits for the drain goroutines.
func (h *harness) stopAll() {
	for _, ep := range h.eps {
		if !ep.down && ep.hub != nil {
			_ = ep.hub.Stop()
		}
	}
	h.wg.Wait()
}
