package sim

import (
	"fmt"
	"math/rand"
	"slices"

	"damulticast/internal/core"
	"damulticast/internal/ids"
	"damulticast/internal/metrics"
	"damulticast/internal/simnet"
	"damulticast/internal/topic"
	"damulticast/internal/xrand"
)

// Result aggregates one run's measurements.
type Result struct {
	// Intra maps each group to the number of event messages sent
	// within it (Fig. 8's y-axis).
	Intra map[topic.Topic]int64
	// Inter maps src->dst group links to event messages sent across
	// them (Fig. 9's y-axis).
	Inter map[[2]topic.Topic]int64
	// DeliveredAlive counts alive processes per group that received
	// the event (averaged over publications).
	DeliveredAlive map[topic.Topic]float64
	// Alive counts alive processes per group (publisher included).
	Alive map[topic.Topic]int
	// Size is the configured group size.
	Size map[topic.Topic]int
	// Reliability is DeliveredAlive / Alive per group, counting the
	// publisher as trivially reached: the protocol-level reliability
	// of §VI-D measured over processes that could receive at all.
	Reliability map[topic.Topic]float64
	// ReliabilityAll is DeliveredAlive / Size: the fraction of ALL
	// group members (failed ones included) that received the event —
	// the y-axis of Figs. 10-11 ("percentage of processes receiving a
	// message"), which is why those curves track the alive fraction.
	ReliabilityAll map[topic.Topic]float64
	// AllAliveReached reports whether every alive process of the
	// group received every publication (the paper's strict
	// "reliability" event of §VI-D).
	AllAliveReached map[topic.Topic]bool
	// FirstDeliveryRound maps each group to the simulation round of
	// its earliest delivery (gossip latency in rounds; 0 when the
	// group never received). The paper does not plot latency, but it
	// is the standard companion metric for epidemic dissemination and
	// the ablation benches report it.
	FirstDeliveryRound map[topic.Topic]int
	// Parasites counts deliveries to uninterested processes
	// (invariantly 0 for daMulticast).
	Parasites int64
	// TotalEvents is the total number of event messages sent.
	TotalEvents int64
	// KindTotals sums every metrics counter by kind name (intra,
	// inter, delivered, parasite, control, dropped) across all groups
	// — the per-kind counts experiment run reports record.
	KindTotals map[string]int64
	// Rounds is how many rounds ran before quiescence.
	Rounds int
}

// node adapts a core.Process to the simnet kernel.
type node struct {
	proc *core.Process
	env  *nodeEnv
}

func (n *node) ID() ids.ProcessID { return n.proc.ID() }
func (n *node) Tick()             { n.proc.Tick() }
func (n *node) HandleMessage(msg any) {
	if m, ok := msg.(*core.Message); ok {
		n.proc.HandleMessage(m)
	}
}

// nodeEnv implements core.Env on the kernel. Each process owns a
// private random stream (derived from the run seed and its id) and a
// private delivery buffer, so HandleMessage can run on any shard
// goroutine without contending on shared state; the Runner flushes the
// buffers serially in insertion order at the end of every round.
type nodeEnv struct {
	id      ids.ProcessID
	slot    int // node slot in the kernel, and index in Runner.envs
	group   int // index of the process's group in Config.Groups
	port    simnet.Port
	overlay *[]ids.ProcessID
	rng     *rand.Rand
	pending []core.Event // deliveries buffered during the round phase, reused every round
}

func (e *nodeEnv) Send(to ids.ProcessID, m *core.Message) { e.port.Send(to, m) }

// SendBatch copies the lent message once, since the kernel carries
// messages by reference until they are delivered, and queues the copy
// to every target, loss coins drawn in per-target order.
func (e *nodeEnv) SendBatch(targets []ids.ProcessID, m *core.Message) {
	cp := *m
	cp.Events = slices.Clone(m.Events)
	for _, to := range targets {
		e.port.Send(to, &cp)
	}
}
func (e *nodeEnv) Deliver(ev *core.Event) { e.pending = append(e.pending, *ev) }
func (e *nodeEnv) Rand() *rand.Rand       { return e.rng }
func (e *nodeEnv) Neighborhood(k int) []ids.ProcessID {
	return xrand.SampleIDs(e.rng, *e.overlay, k)
}

// Runner holds a fully built simulation, exposed so tests and ablation
// benches can poke at intermediate state. Most callers use Run.
type Runner struct {
	cfg     Config
	net     *simnet.Network
	reg     *metrics.Registry
	groups  map[topic.Topic][]*core.Process
	overlay []ids.ProcessID
	envs    []*nodeEnv // by node slot, for deterministic delivery flush
	// base[g] is the node slot of group g's first member: a group's
	// members hold consecutive slots, in Config.Groups order.
	base []int
	// counts accumulates every send and delivery since the last fold
	// into reg.
	counts tally
	// tracked maps each event published since the last collect to its
	// row in reached, a bitset over node slots of who has it. Both are
	// emptied at collect, so the Runner keeps no per-event state
	// across Runs.
	tracked map[ids.EventID]int
	reached [][]uint64
	// firstRound[g] is the earliest round any member of group g
	// delivered (0: none yet; rounds start at 1).
	firstRound []int
	pubCount   uint64
	// harvested guards the one-shot fold of per-process recovery
	// counters into the registry (collect may run more than once on a
	// Runner tests poke at).
	harvested bool
}

// NewRunner builds the network per cfg: groups of processes with
// statically initialized topic tables (size (b+1)·ln(S), random group
// mates) and supertopic tables (z random members of the nearest
// configured supergroup), exactly like the paper's simulator setup.
func NewRunner(cfg Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	total := 0
	for _, g := range cfg.Groups {
		total += g.Size
	}
	r := &Runner{
		cfg:        cfg,
		net:        simnet.New(cfg.Seed),
		reg:        metrics.NewRegistry(),
		groups:     make(map[topic.Topic][]*core.Process, len(cfg.Groups)),
		overlay:    make([]ids.ProcessID, 0, total),
		envs:       make([]*nodeEnv, 0, total),
		base:       make([]int, len(cfg.Groups)),
		counts:     newTally(len(cfg.Groups)),
		tracked:    make(map[ids.EventID]int),
		firstRound: make([]int, len(cfg.Groups)),
	}
	r.net.PSucc = cfg.PSucc
	r.net.OnSend = r.onSend
	r.net.OnRoundEnd = r.flushDeliveries
	r.net.Workers = cfg.Workers

	// Periodic protocol tasks only matter when the config enables
	// them; the paper's figure runs use static tables.
	r.net.TickNodes = cfg.Params.ShufflePeriod > 0 || cfg.Params.MaintainPeriod > 0 ||
		cfg.Params.RecoverPeriod > 0

	// Create processes.
	for gi, g := range cfg.Groups {
		params := cfg.Params
		params.GroupSizeHint = g.Size
		r.base[gi] = len(r.envs)
		r.groups[g.Topic] = make([]*core.Process, 0, g.Size)
		for i := 0; i < g.Size; i++ {
			id := ids.Indexed(string(g.Topic), i)
			env := &nodeEnv{
				id:      id,
				slot:    len(r.envs),
				group:   gi,
				overlay: &r.overlay,
				rng:     xrand.NewStream(cfg.Seed, "proc:"+string(id)),
			}
			proc, err := core.NewProcess(id, g.Topic, params, env)
			if err != nil {
				return nil, err
			}
			r.groups[g.Topic] = append(r.groups[g.Topic], proc)
			r.overlay = append(r.overlay, id)
			r.envs = append(r.envs, env)
			if err := r.net.AddNode(&node{proc: proc, env: env}); err != nil {
				return nil, err
			}
			env.port = r.net.Port(id)
		}
	}

	// Static table initialization.
	rng := r.net.Rand()
	for _, g := range cfg.Groups {
		members := r.groups[g.Topic]
		memberIDs := make([]ids.ProcessID, len(members))
		for i, p := range members {
			memberIDs[i] = p.ID()
		}
		tableCap := xrand.ViewSize(g.Size, cfg.Params.B)
		superTopic, superIDs := r.nearestSupergroup(g.Topic)
		for _, p := range members {
			p.SetTopicTableCap(tableCap)
			p.SeedTopicTable(sampleOthers(rng, memberIDs, p.ID(), tableCap))
			if superTopic != "" {
				p.SeedSuperTable(superTopic, xrand.SampleIDs(rng, superIDs, cfg.Params.Z))
			}
		}
	}

	// Failure installation.
	switch cfg.FailureMode {
	case FailStillborn:
		r.installStillborn()
	case FailPerObserver:
		pFail := 1 - cfg.AliveFraction
		r.net.SetPairDown(simnet.PairDownCoin(cfg.Seed+1, pFail))
	}
	return r, nil
}

// nearestSupergroup finds the deepest configured group whose topic
// strictly includes t (the topic that "induces" t), with its members.
// Depth ties break to the lexicographically smallest topic so the
// choice never depends on map iteration order.
func (r *Runner) nearestSupergroup(t topic.Topic) (topic.Topic, []ids.ProcessID) {
	cands := make([]topic.Topic, 0, len(r.groups))
	for gt := range r.groups {
		if gt.StrictlyIncludes(t) {
			cands = append(cands, gt)
		}
	}
	slices.Sort(cands)
	best := topic.Topic("")
	for _, gt := range cands {
		if best == "" || gt.Depth() > best.Depth() {
			best = gt
		}
	}
	if best == "" {
		return "", nil
	}
	members := r.groups[best]
	out := make([]ids.ProcessID, len(members))
	for i, p := range members {
		out[i] = p.ID()
	}
	return best, out
}

// sampleOthers samples up to k ids from pool excluding self.
func sampleOthers(rng *rand.Rand, pool []ids.ProcessID, self ids.ProcessID, k int) []ids.ProcessID {
	return xrand.SampleExcluding(rng, pool, k, map[ids.ProcessID]struct{}{self: {}})
}

// installStillborn fails floor((1-alive)·S) processes per group at
// time zero. Failed processes stay in others' tables ("pessimistically,
// we assume that the membership algorithm does not replace a failed
// process").
func (r *Runner) installStillborn() {
	rng := r.net.Rand()
	// Iterate the config slice, not the groups map: map order would
	// consume the RNG nondeterministically across runs.
	for _, g := range r.cfg.Groups {
		members := r.groups[g.Topic]
		nFail := int(float64(len(members)) * (1 - r.cfg.AliveFraction))
		perm := rng.Perm(len(members))
		for i := 0; i < nFail && i < len(members); i++ {
			p := members[perm[i]]
			p.Stop()
			if err := r.net.Crash(p.ID()); err != nil {
				panic(err) // node was just added; cannot fail
			}
		}
	}
}

// onSend classifies and counts every message attempt.
func (r *Runner) onSend(env simnet.Envelope, dropped bool) {
	m, ok := env.Msg.(*core.Message)
	if !ok {
		return
	}
	// Every sender and target is a process: the Runner's processes only
	// know each other's ids.
	c := &r.counts
	src, dst := r.envs[env.FromIndex()].group, r.envs[env.ToIndex()].group
	switch {
	case m.Type == core.MsgEvent:
		if src == dst {
			c.byKind[metrics.IntraGroup][src]++
		} else {
			c.inter[src*c.width+dst]++
		}
	case m.Type.IsRecovery():
		c.byKind[metrics.RecoverMsg][src]++
	default:
		c.byKind[metrics.Control][src]++
	}
	if dropped {
		c.byKind[metrics.Dropped][src]++
	}
}

// tally holds the Runner's counts in flat arrays, the way scale.Sink
// does: per kind and group, and per source and destination group for
// inter-group sends. fold moves the counts into the registry.
type tally struct {
	width  int                             // number of groups
	byKind [metrics.RecoverMsg + 1][]int64 // kind -> group -> count
	inter  []int64                         // src*width + dst -> count
}

// tallyKinds are the kinds a tally counts per group.
var tallyKinds = [...]metrics.Kind{
	metrics.IntraGroup, metrics.Delivered, metrics.Parasite,
	metrics.Control, metrics.Dropped, metrics.RecoverMsg,
}

func newTally(groups int) tally {
	t := tally{width: groups, inter: make([]int64, groups*groups)}
	for _, k := range tallyKinds {
		t.byKind[k] = make([]int64, t.width)
	}
	return t
}

// fold adds the counts to reg and zeroes them. Only non-zero counts are
// added, so reg holds the same keys as if every message had been
// counted into it directly.
func (r *Runner) fold() {
	c := &r.counts
	groups := r.cfg.Groups
	for _, k := range tallyKinds {
		for g, v := range c.byKind[k] {
			if v != 0 {
				r.reg.Add(metrics.Key{Kind: k, Topic: groups[g].Topic}, v)
				c.byKind[k][g] = 0
			}
		}
	}
	for i, v := range c.inter {
		if v != 0 {
			r.reg.AddInter(groups[i/c.width].Topic, groups[i%c.width].Topic, v)
			c.inter[i] = 0
		}
	}
}

// flushDeliveries drains every node's buffered deliveries serially in
// insertion order at the end of a round — the only point where the
// shared tracking maps are written, so the parallel phase stays
// race-free and the recorded order is canonical for any worker count.
func (r *Runner) flushDeliveries(round int) {
	for _, e := range r.envs {
		for i := range e.pending {
			r.recordDeliver(e, &e.pending[i], round)
		}
		e.pending = e.pending[:0]
	}
}

// recordDeliver records one delivery and checks the no-parasite
// invariant.
func (r *Runner) recordDeliver(e *nodeEnv, ev *core.Event, round int) {
	g := e.group
	if !r.cfg.Groups[g].Topic.Includes(ev.Topic) {
		r.counts.byKind[metrics.Parasite][g]++
		return
	}
	r.counts.byKind[metrics.Delivered][g]++
	if row, ok := r.tracked[ev.ID]; ok {
		setBit(r.reached[row], e.slot)
	}
	if r.firstRound[g] == 0 {
		r.firstRound[g] = round
	}
}

func setBit(set []uint64, i int)      { set[i/64] |= 1 << (i % 64) }
func hasBit(set []uint64, i int) bool { return set[i/64]&(1<<(i%64)) != 0 }

// track starts tracking who receives event id, which slot published.
// An id published again starts over from its publisher alone.
func (r *Runner) track(id ids.EventID, slot int) {
	row, ok := r.tracked[id]
	if ok {
		clear(r.reached[row])
	} else {
		row = len(r.tracked)
		if row == len(r.reached) {
			r.reached = append(r.reached, make([]uint64, (len(r.envs)+63)/64))
		}
		r.tracked[id] = row
	}
	setBit(r.reached[row], slot)
}

// untrack forgets every tracked event.
func (r *Runner) untrack() {
	for _, set := range r.reached[:len(r.tracked)] {
		clear(set)
	}
	clear(r.tracked)
}

// PublishFrom makes a random alive member of the publish group publish
// one event, returning its id for tracking. Deliveries only occur when
// the network is subsequently stepped, so registering the tracking set
// right after Publish is race-free.
func (r *Runner) PublishFrom(rng *rand.Rand) (ids.EventID, error) {
	return r.publishFromGroup(r.cfg.PublishTopic, rng)
}

// publishFromGroup publishes one event from a random alive member of
// the given group.
func (r *Runner) publishFromGroup(t topic.Topic, rng *rand.Rand) (ids.EventID, error) {
	members := r.groups[t]
	alive := make([]int, 0, len(members))
	for i, p := range members {
		if !p.Stopped() {
			alive = append(alive, i)
		}
	}
	if len(alive) == 0 {
		return ids.EventID{}, fmt.Errorf("sim: no alive publisher in %s", t)
	}
	i := alive[rng.Intn(len(alive))]
	r.pubCount++
	ev, err := members[i].Publish([]byte(fmt.Sprintf("event-%d", r.pubCount)))
	if err != nil {
		return ids.EventID{}, err
	}
	// The publisher counts as trivially reached.
	r.track(ev.ID, r.base[r.groupIndex(t)]+i)
	return ev.ID, nil
}

// Run executes the configured experiment and aggregates the result.
func Run(cfg Config) (*Result, error) {
	r, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	return r.Run()
}

// Run performs the publications and drives the network to quiescence.
func (r *Runner) Run() (*Result, error) {
	cfg := r.cfg
	pubs := cfg.Publications
	if pubs <= 0 {
		pubs = 1
	}
	rng := r.net.Rand()
	totalRounds := 0
	evs := make([]ids.EventID, 0, pubs)
	for i := 0; i < pubs; i++ {
		id, err := r.PublishFrom(rng)
		if err != nil {
			return nil, err
		}
		evs = append(evs, id)
		totalRounds += r.net.Run(cfg.MaxRounds)
	}
	return r.collect(evs, totalRounds), nil
}

// harvestRecoveryStats folds the per-process recovery counters into
// the registry (once, at collection time) so they surface in Rows,
// KindTotals and run reports like every other counter.
func (r *Runner) harvestRecoveryStats() {
	if r.cfg.Params.RecoverPeriod <= 0 || r.harvested {
		return
	}
	r.harvested = true
	for _, g := range r.cfg.Groups {
		var recovered, suppressed, gcd, truncated int64
		for _, p := range r.groups[g.Topic] {
			st := p.RecoveryStats()
			recovered += int64(st.Recovered)
			suppressed += int64(st.Suppressed)
			gcd += int64(st.GCd)
			truncated += int64(st.Truncated)
		}
		if recovered > 0 {
			r.reg.AddRecovered(g.Topic, recovered)
		}
		if suppressed > 0 {
			r.reg.AddRecoverSupp(g.Topic, suppressed)
		}
		if gcd > 0 {
			r.reg.AddRecoverGC(g.Topic, gcd)
		}
		if truncated > 0 {
			r.reg.AddRecoverTrunc(g.Topic, truncated)
		}
	}
}

// groupIndex returns t's index in Config.Groups, or -1.
func (r *Runner) groupIndex(t topic.Topic) int {
	return slices.IndexFunc(r.cfg.Groups, func(g GroupSpec) bool { return g.Topic == t })
}

func (r *Runner) collect(evs []ids.EventID, rounds int) *Result {
	defer r.untrack()
	r.fold()
	r.harvestRecoveryStats()
	res := &Result{
		Intra:              make(map[topic.Topic]int64),
		Inter:              make(map[[2]topic.Topic]int64),
		DeliveredAlive:     make(map[topic.Topic]float64),
		Alive:              make(map[topic.Topic]int),
		Size:               make(map[topic.Topic]int),
		Reliability:        make(map[topic.Topic]float64),
		ReliabilityAll:     make(map[topic.Topic]float64),
		AllAliveReached:    make(map[topic.Topic]bool),
		FirstDeliveryRound: make(map[topic.Topic]int, len(r.cfg.Groups)),
		KindTotals:         make(map[string]int64),
		Rounds:             rounds,
	}
	// One merged pass over the sharded registry feeds all three
	// aggregate fields.
	for _, row := range r.reg.Rows() {
		res.KindTotals[row.Key.Kind.String()] += row.Value
		switch row.Key.Kind {
		case metrics.Parasite:
			res.Parasites += row.Value
		case metrics.IntraGroup, metrics.InterGroup:
			res.TotalEvents += row.Value
		}
	}
	for gi, g := range r.cfg.Groups {
		if round := r.firstRound[gi]; round != 0 {
			res.FirstDeliveryRound[g.Topic] = round
		}
		res.Size[g.Topic] = g.Size
		res.Intra[g.Topic] = r.reg.Intra(g.Topic)
		alive := 0
		for _, p := range r.groups[g.Topic] {
			if !p.Stopped() {
				alive++
			}
		}
		res.Alive[g.Topic] = alive

		// Average received fraction over publications; strict
		// all-reached over all publications.
		allReached := true
		var fracSum float64
		for _, evID := range evs {
			set := r.reached[r.tracked[evID]]
			got := 0
			for i, p := range r.groups[g.Topic] {
				if !p.Stopped() && hasBit(set, r.base[gi]+i) {
					got++
				}
			}
			if alive > 0 {
				fracSum += float64(got) / float64(alive)
				if got < alive {
					allReached = false
				}
			}
		}
		if n := len(evs); n > 0 && alive > 0 {
			res.DeliveredAlive[g.Topic] = fracSum / float64(n) * float64(alive)
			res.Reliability[g.Topic] = fracSum / float64(n)
			res.ReliabilityAll[g.Topic] = res.DeliveredAlive[g.Topic] / float64(g.Size)
		}
		res.AllAliveReached[g.Topic] = allReached && alive > 0
	}
	for src := range r.groups {
		for dst := range r.groups {
			if src == dst {
				continue
			}
			if v := r.reg.Inter(src, dst); v > 0 {
				res.Inter[[2]topic.Topic{src, dst}] += v
			}
		}
	}
	return res
}

// Registry exposes the metrics registry (for tests and benches), with
// every count so far folded in.
func (r *Runner) Registry() *metrics.Registry {
	r.fold()
	return r.reg
}

// Group returns the processes of one group (for tests).
func (r *Runner) Group(t topic.Topic) []*core.Process { return r.groups[t] }
