package scale

import (
	"errors"
	"fmt"
	"math/bits"

	"damulticast/internal/core"
	"damulticast/internal/metrics"
	"damulticast/internal/topic"
	"damulticast/internal/xrand"
)

// GroupSpec declares one topic group and its population, mirroring
// sim.GroupSpec.
type GroupSpec struct {
	Topic topic.Topic
	Size  int
}

// Config parameterizes one scale-kernel run. The knobs mirror
// sim.Config where the models overlap; the scale kernel supports
// channel loss (PSucc) but not the static failure models — its job is
// the memory/complexity scaling curve, not the failure figures.
type Config struct {
	// Groups lists every group; members are laid out contiguously in
	// declaration order.
	Groups []GroupSpec
	// Params are the paper's protocol constants (B, C, G, A, Z used).
	Params core.Params
	// PSucc is the per-message channel success probability (1 = lossless).
	PSucc float64
	// PublishTopic is the topic events are published on.
	PublishTopic topic.Topic
	// Publications is how many independent events are published
	// (sequentially; metrics sum, reliability averages). Default 1.
	Publications int
	// MaxRounds bounds each publication's dissemination. Default 200.
	MaxRounds int
	// Seed drives all randomness.
	Seed int64
	// Workers is ignored: the kernel is serial. Sweeps gain their
	// parallelism by running independent kernels side by side.
	Workers int
}

// BudgetBytesPerProcess is the published memory budget for the scale
// kernel: the self-accounted state (views, supertopic tables, group
// metadata, round bitsets) stays under this per process at every figure
// point up to a million processes. The measured footprint at 1e6 in the
// paper topology is ~240 B/process (a ~55-entry uint32 view, a 3-entry
// table, and 3 bits of round state); the budget leaves ~2x headroom for
// allocator overhead and larger view strides. The memory regression
// test enforces the budget against runtime.ReadMemStats.
const BudgetBytesPerProcess = 512

// Validation errors.
var (
	ErrNoGroups    = errors.New("scale: no groups configured")
	ErrBadSize     = errors.New("scale: group size must be >= 1")
	ErrBadPSucc    = errors.New("scale: PSucc must be in (0, 1]")
	ErrNoPublisher = errors.New("scale: PublishTopic has no group")
	ErrDupTopic    = errors.New("scale: duplicate group topic")
)

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.Groups) == 0 {
		return ErrNoGroups
	}
	seen := map[topic.Topic]bool{}
	foundPub := false
	for _, g := range c.Groups {
		if g.Size < 1 {
			return fmt.Errorf("%w: %s has %d", ErrBadSize, g.Topic, g.Size)
		}
		if !g.Topic.Valid() {
			return fmt.Errorf("scale: invalid group topic %q", string(g.Topic))
		}
		if seen[g.Topic] {
			return fmt.Errorf("%w: %s", ErrDupTopic, g.Topic)
		}
		seen[g.Topic] = true
		if g.Topic == c.PublishTopic {
			foundPub = true
		}
	}
	if !foundPub {
		return fmt.Errorf("%w: %s", ErrNoPublisher, c.PublishTopic)
	}
	if c.PSucc <= 0 || c.PSucc > 1 {
		return fmt.Errorf("%w: %g", ErrBadPSucc, c.PSucc)
	}
	return c.Params.Validate()
}

// Result aggregates one run's measurements, shaped like the sim.Result
// fields the figures consume.
type Result struct {
	// Reliability maps each group to the average fraction of its
	// members reached per publication (publisher counted as trivially
	// reached, like sim).
	Reliability map[topic.Topic]float64
	// TotalEvents is the total number of event messages sent.
	TotalEvents int64
	// KindTotals sums every metrics counter by kind name.
	KindTotals map[string]int64
	// Rounds is the total number of dissemination rounds executed
	// across publications.
	Rounds int
	// StateBytes is the kernel's self-accounted per-run state: the
	// struct-of-arrays store plus the three round bitsets. A pure
	// function of the topology — never of the allocator — so figure
	// series derived from it are byte-reproducible.
	StateBytes int64
}

// BytesPerProcess is StateBytes amortized over the population.
func (r *Result) BytesPerProcess(n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(r.StateBytes) / float64(n)
}

// Kernel is the million-process round engine. State per process:
// 4·viewStride bytes of view, 4·superStride bytes of supertopic table,
// and 3 bits across the round bitsets. Everything else is per group.
type Kernel struct {
	cfg   Config
	store *Store
	sink  *Sink
	reg   *metrics.Registry

	// has marks processes that delivered the current event; inbox holds
	// arrivals for the round being processed; next collects sends for
	// the round after.
	has, inbox, next []uint64

	scratch []uint16 // partial Fisher-Yates space, maxStride entries
	landed  int64    // sends the channel did not drop this phase

	seedPub, seedRound int64
}

// New validates cfg and builds the kernel: the struct-of-arrays store,
// the metrics sink and the round bitsets.
func New(cfg Config) (*Kernel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st, err := NewStore(cfg.Groups, cfg.Params, xrand.SeedFor(cfg.Seed, "scale:store"), 1)
	if err != nil {
		return nil, err
	}
	words := (st.Len() + 63) / 64
	return &Kernel{
		cfg:       cfg,
		store:     st,
		sink:      NewSink(st),
		reg:       metrics.NewRegistry(),
		has:       make([]uint64, words),
		inbox:     make([]uint64, words),
		next:      make([]uint64, words),
		scratch:   make([]uint16, st.maxStride),
		seedPub:   xrand.SeedFor(cfg.Seed, "scale:pub"),
		seedRound: xrand.SeedFor(cfg.Seed, "scale:round"),
	}, nil
}

// Store exposes the kernel's state store (for tests and accounting).
func (k *Kernel) Store() *Store { return k.store }

// Registry exposes the kernel's metrics registry.
func (k *Kernel) Registry() *metrics.Registry { return k.reg }

// StateBytes self-accounts the run state: store arrays plus the three
// round bitsets. The Fisher-Yates scratch (O(stride)) and the sink
// counters (O(groups)) are deliberately excluded: the published budget
// is per-process state.
func (k *Kernel) StateBytes() int64 {
	return k.store.AccountedBytes() + int64(3*len(k.has))*8
}

// Run executes the configured publications and aggregates the result.
func Run(cfg Config) (*Result, error) {
	k, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return k.Run()
}

// Run drives every publication to quiescence (or MaxRounds) and
// collects the result. Metrics stream into the registry at every round
// boundary via the sink.
func (k *Kernel) Run() (*Result, error) {
	pubs := k.cfg.Publications
	if pubs <= 0 {
		pubs = 1
	}
	maxRounds := k.cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 200
	}
	pgi, _ := k.store.topics.Lookup(k.cfg.PublishTopic)
	relSum := make([]float64, k.store.Groups())
	totalRounds := 0

	for e := 0; e < pubs; e++ {
		clear(k.has)
		clear(k.inbox)
		clear(k.next)

		// Publish: a deterministic pseudo-random member of the publish
		// group delivers trivially and disseminates into the first
		// round's inbox.
		pg := &k.store.groups[pgi]
		pub := pg.start + sm64ValueIntn(mix2(uint64(k.seedPub), tagPub, uint64(e)), pg.size)
		setBit(k.has, pub)
		k.forward(pub, int(pgi), e, 0)
		pending := k.endRound()

		for r := 1; r <= maxRounds && pending > 0; r++ {
			k.stepRound(e, r)
			pending = k.endRound()
			totalRounds++
		}

		for gi := range k.store.groups {
			g := &k.store.groups[gi]
			got := popcountRange(k.has, g.start, g.start+g.size)
			relSum[gi] += float64(got) / float64(g.size)
		}
	}

	res := &Result{
		Reliability: make(map[topic.Topic]float64, k.store.Groups()),
		KindTotals:  make(map[string]int64),
		Rounds:      totalRounds,
		StateBytes:  k.StateBytes(),
	}
	for gi := range k.store.groups {
		res.Reliability[k.store.GroupTopic(gi)] = relSum[gi] / float64(pubs)
	}
	for _, row := range k.reg.Rows() {
		res.KindTotals[row.Key.Kind.String()] += row.Value
		if row.Key.Kind == metrics.IntraGroup || row.Key.Kind == metrics.InterGroup {
			res.TotalEvents += row.Value
		}
	}
	return res, nil
}

// stepRound runs one dissemination round: it scans inbox for
// first-time receipts, marks them in has, counts the delivery, and
// forwards into next.
func (k *Kernel) stepRound(e, r int) {
	gi := 0
	for w, in := range k.inbox {
		fresh := in &^ k.has[w]
		if fresh == 0 {
			continue
		}
		k.has[w] |= fresh
		base := uint32(w) * 64
		for fresh != 0 {
			i := base + uint32(bits.TrailingZeros64(fresh))
			fresh &= fresh - 1
			for i >= k.store.groups[gi].start+k.store.groups[gi].size {
				gi++
			}
			k.sink.delivered[gi]++
			k.forward(i, gi, e, r)
		}
	}
}

// endRound closes a phase: next becomes the coming round's inbox, the
// sink's counts fold into the registry, and the number of sends that
// survived the channel (the next round's pending work) is returned.
func (k *Kernel) endRound() int64 {
	k.inbox, k.next = k.next, k.inbox
	clear(k.next)
	k.sink.FlushRound(k.reg)
	landed := k.landed
	k.landed = 0
	return landed
}

// forward disseminates the event from process i (paper Fig. 7): with
// probability pSel elect up toward the supergroup, pushing to each
// supertopic-table entry with probability pA; then gossip to fanout
// distinct view entries. Loss coins draw from the same per-(event,
// round, process) stream, so every decision is pure and
// order-independent. Sends set bits in k.next.
func (k *Kernel) forward(i uint32, gi, e, r int) {
	g := &k.store.groups[gi]
	rng := sm64(mix3(uint64(k.seedRound), tagRound, uint64(e)<<32|uint64(uint32(r)), uint64(i)))
	m := uint64(i - g.start)

	if g.superStride > 0 && rng.float() < g.pSel {
		table := k.store.super[g.superBase+m*uint64(g.superStride):][:g.superStride]
		for _, t := range table {
			if rng.float() >= g.pA {
				continue
			}
			k.sink.inter[gi]++
			if k.cfg.PSucc >= 1 || rng.float() < k.cfg.PSucc {
				setBit(k.next, t)
				k.landed++
			} else {
				k.sink.dropped[gi]++
			}
		}
	}

	stride := g.viewStride
	if stride == 0 {
		return
	}
	view := k.store.view[g.viewBase+m*uint64(stride):][:stride]
	if g.fanout >= stride {
		// Degenerate fanout: the whole view.
		for _, t := range view {
			k.sendIntra(t, gi, &rng)
		}
		return
	}
	// Partial Fisher-Yates over the scratch picks fanout distinct view
	// slots.
	sc := k.scratch[:stride]
	for j := range sc {
		sc[j] = uint16(j)
	}
	for j := uint32(0); j < g.fanout; j++ {
		t := j + rng.intn(stride-j)
		sc[j], sc[t] = sc[t], sc[j]
		k.sendIntra(view[sc[j]], gi, &rng)
	}
}

// sendIntra counts and delivers (or drops) one intra-group send.
func (k *Kernel) sendIntra(t uint32, gi int, rng *sm64) {
	k.sink.intra[gi]++
	if k.cfg.PSucc >= 1 || rng.float() < k.cfg.PSucc {
		setBit(k.next, t)
		k.landed++
	} else {
		k.sink.dropped[gi]++
	}
}

// sm64ValueIntn draws one uniform [0, n) value from a fresh stream key
// (publisher selection).
func sm64ValueIntn(key uint64, n uint32) uint32 {
	s := sm64(key)
	return s.intn(n)
}

// setBit sets bit i.
func setBit(bs []uint64, i uint32) { bs[i/64] |= 1 << (i % 64) }

// popcountRange counts set bits in [from, to).
func popcountRange(bs []uint64, from, to uint32) int {
	if from >= to {
		return 0
	}
	fw, tw := from/64, (to-1)/64
	if fw == tw {
		mask := (^uint64(0) << (from % 64)) & (^uint64(0) >> (63 - (to-1)%64))
		return bits.OnesCount64(bs[fw] & mask)
	}
	total := bits.OnesCount64(bs[fw] &^ ((1 << (from % 64)) - 1))
	for w := fw + 1; w < tw; w++ {
		total += bits.OnesCount64(bs[w])
	}
	total += bits.OnesCount64(bs[tw] & (^uint64(0) >> (63 - (to-1)%64)))
	return total
}
