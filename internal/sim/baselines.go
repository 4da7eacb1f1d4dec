package sim

import (
	"damulticast/internal/baseline"
	"damulticast/internal/core"
	"damulticast/internal/scenario"
	"damulticast/internal/sizing"
	"damulticast/internal/topic"
)

// The "baselines" figure pits da-multicast against the three §VI-E
// comparison algorithms (gossip broadcast, per-topic multicast,
// hierarchical broadcast) on one shared adversity schedule: an initial
// partition with straggler links, a churn wave, a mid-run loss burst,
// then heal/restore and a flash-crowd restart. The x-axis is the
// steady-state channel success probability, swept over [0.4, 1.0] —
// below that the one-shot epidemics the baselines rely on die out
// entirely and the comparison degenerates.
const (
	// baselinesRounds gives the recovery plane ~20 anti-entropy waves
	// after the round-8 heal.
	baselinesRounds = 48
	// baselinesTotal is the whole-population size, zipf-distributed
	// over seven topics on three branches; only the .t1 branch is
	// interested in the published event, so broadcast's parasite cost
	// shows.
	baselinesTotal   = 800
	baselinesZipfExp = 1.0
	// baselinesRecoverPeriod/Fanout drive the da-multicast recovery
	// subsystem in this figure.
	baselinesRecoverPeriod = 2
	baselinesRecoverFanout = 3
	// baselinesG/baselinesA widen the paper's inter-group knobs (g
	// electors, a-of-z supertable sends) for this figure: the upward
	// .t1 -> root pipe is one-shot, and under a round-0 partition plus
	// heavy loss the default ~g*(a/z) expected crossings can all drop,
	// leaving the root group permanently empty-handed — intra-group
	// recovery cannot regrow an event no member ever held.
	baselinesG = 8
	baselinesA = 3
)

// baselinesTopics names the figure's hierarchy: three branches of
// depth 2 under the root. Publishing happens at .t1.t2; the .a and .z
// branches are uninterested bystanders.
func baselinesTopics() []string {
	return []string{".a1", ".t1", ".z1", ".a1.a2", ".t1.t2", ".z1.z2"}
}

// baselinesTopology builds the shared population: zipf-skewed sizes
// over the hierarchy, emitted in the hierarchy's canonical topic order
// for both the sim groups and the baseline populations, so both worlds
// construct identical process-id sets ("topic#i").
func baselinesTopology() ([]GroupSpec, []baseline.Population, topic.Topic, error) {
	h := topic.NewHierarchy()
	for _, name := range baselinesTopics() {
		t, err := topic.Parse(name)
		if err != nil {
			return nil, nil, "", err
		}
		if err := h.Add(t); err != nil {
			return nil, nil, "", err
		}
	}
	sizes, err := sizing.Zipf(h, baselinesTotal, baselinesZipfExp)
	if err != nil {
		return nil, nil, "", err
	}
	groups := make([]GroupSpec, 0, h.Len())
	pops := make([]baseline.Population, 0, h.Len())
	for _, t := range h.Topics() {
		groups = append(groups, GroupSpec{Topic: t, Size: sizes[t]})
		pops = append(pops, baseline.Population{Topic: t, Size: sizes[t]})
	}
	pub, err := topic.Parse(".t1.t2")
	if err != nil {
		return nil, nil, "", err
	}
	return groups, pops, pub, nil
}

// baselinesBurst is the loss-burst success probability at sweep point
// x: half the steady-state rate, floored so the burst never silences
// the network outright.
func baselinesBurst(x float64) float64 {
	if b := 0.5 * x; b > 0.15 {
		return b
	}
	return 0.15
}

// baselinesEvents is the one adversity schedule both sides of the
// figure face. The partition and stragglers are installed before the
// publish, so the very first fanout already faces them. Partition cells
// and straggler coins hash the same seeds and process ids on both
// sides, so paired runs see the same cells and the same slow links; the
// baselines keep their single publication implicit at round 0.
func baselinesEvents(x float64) []scenario.Event {
	return []scenario.Event{
		{Round: 0, Kind: scenario.Stragglers, Fraction: 0.2, Delay: 2},
		{Round: 0, Kind: scenario.Partition, Cells: 2},
		{Round: 0, Kind: scenario.Publish},
		{Round: 2, Kind: scenario.CrashWave, Fraction: 0.15},
		{Round: 4, Kind: scenario.LossBurst, PSucc: baselinesBurst(x)},
		{Round: 8, Kind: scenario.Heal},
		{Round: 9, Kind: scenario.LossRestore},
		{Round: 12, Kind: scenario.FlashCrowd, Fraction: 1},
	}
}

// baselinesDamcRun executes the da-multicast side of one point.
func baselinesDamcRun(events []scenario.Event, x float64, seed int64, kernelWorkers int) (*Result, error) {
	groups, _, pub, err := baselinesTopology()
	if err != nil {
		return nil, err
	}
	params := core.DefaultParams()
	params.ShufflePeriod = 0
	params.MaintainPeriod = 0
	params.G = baselinesG
	params.A = baselinesA
	params.RecoverPeriod = baselinesRecoverPeriod
	params.RecoverFanout = baselinesRecoverFanout
	params.RecoverMaxAge = baselinesRounds + 1 // nothing ages out mid-figure
	cfg := Config{
		Groups:        groups,
		Params:        params,
		PSucc:         x,
		AliveFraction: 1,
		FailureMode:   FailNone,
		PublishTopic:  pub,
		Publications:  1,
		MaxRounds:     baselinesRounds,
		Seed:          seed,
		Workers:       kernelWorkers,
	}
	return RunScenario(cfg, Scenario{Name: "baselines", Rounds: baselinesRounds, Events: events})
}

// baselinesInterestedReliability folds the per-group delivery numbers
// of the publish path (root, .t1, .t1.t2) into one interested-alive
// delivery fraction, the same quantity baseline.Result.Reliability
// measures.
func baselinesInterestedReliability(res *Result, pub topic.Topic) float64 {
	var delivered float64
	var alive int
	for t := pub; ; t = t.Super() {
		delivered += res.DeliveredAlive[t]
		alive += res.Alive[t]
		if t.IsRoot() {
			break
		}
	}
	if alive == 0 {
		return 0
	}
	return delivered / float64(alive)
}

// baselinesSpec is the head-to-head figure: per point, four runs on
// paired seeds — da-multicast plus the three §VI-E baselines — under
// the shared schedule, reporting each algorithm's interested-alive
// reliability and its event-message cost ("<algo>_msgs" series; for
// da-multicast that is the §VI-E event-message count, recovery control
// traffic excluded and reported separately in the run-report counts).
func baselinesSpec() figureSpec {
	return figureSpec{
		name:   "baselines",
		xlabel: "channel success probability (1 - loss rate)",
		ylabel: "interested-alive delivery fraction / event messages",
		grid:   baselinesGrid,
		runPoint: func(x float64, seed int64, kernelWorkers int) (pointResult, error) {
			events := baselinesEvents(x)
			damc, err := baselinesDamcRun(events, x, seed, kernelWorkers)
			if err != nil {
				return pointResult{}, err
			}
			_, pops, pub, err := baselinesTopology()
			if err != nil {
				return pointResult{}, err
			}
			bcfg := baseline.Config{
				Populations:   pops,
				PublishTopic:  pub,
				B:             3,
				C:             5,
				PSucc:         x,
				AliveFraction: 1,
				NumGroups:     8,
				MaxRounds:     baselinesRounds,
				Seed:          seed,
				Workers:       kernelWorkers,
				Schedule:      events,
			}
			type algo struct {
				name string
				run  func(baseline.Config) (*baseline.Result, error)
			}
			algos := []algo{
				{"broadcast", baseline.RunBroadcast},
				{"multicast", baseline.RunMulticast},
				{"hierarchical", baseline.RunHierarchical},
			}
			values := map[string]float64{
				"damc":      baselinesInterestedReliability(damc, pub),
				"damc_msgs": float64(damc.TotalEvents),
			}
			counts := make(map[string]int64, len(damc.KindTotals)+len(algos))
			for k, v := range damc.KindTotals {
				counts["damc:"+k] += v
			}
			rounds := damc.Rounds
			for _, a := range algos {
				res, err := a.run(bcfg)
				if err != nil {
					return pointResult{}, err
				}
				values[a.name] = res.Reliability()
				values[a.name+"_msgs"] = float64(res.Messages)
				counts[a.name+":event"] += res.Messages
				counts[a.name+":parasite"] += res.Parasites
				rounds += res.Rounds
			}
			return pointResult{values: values, counts: counts, rounds: rounds}, nil
		},
	}
}

// baselinesGrid sweeps the channel success probability over
// [0.4, 1.0]: evenly spaced, right edge lossless.
func baselinesGrid(points int) []float64 {
	if points == 1 {
		return []float64{1}
	}
	out := make([]float64, points)
	for i := range out {
		out[i] = 0.4 + 0.6*float64(i)/float64(points-1)
	}
	return out
}

// FigureXs returns the canonical x-axis grid for the named figure at
// the given point count: most figures sweep i/points over (0, 1], but
// a spec may pin its own grid (the baselines figure restricts the loss
// sweep to [0.4, 1.0]). Unknown names get the default grid; the
// subsequent GenerateFigure call reports them properly.
func FigureXs(name string, points int) []float64 {
	if points < 1 {
		points = 1
	}
	if spec, ok := figureSpecs()[name]; ok && spec.grid != nil {
		return spec.grid(points)
	}
	out := make([]float64, 0, points)
	for i := 1; i <= points; i++ {
		out = append(out, float64(i)/float64(points))
	}
	return out
}
