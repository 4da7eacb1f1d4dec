package sim

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"damulticast/internal/experiment"
	"damulticast/internal/scenario"
	"damulticast/internal/topic"
	"damulticast/internal/xrand"
)

// Row is one x-axis point of a figure: an alive fraction plus named
// series values.
type Row struct {
	Alive  float64
	Values map[string]float64
}

// Figure is regenerated figure data: ordered rows with a stable set of
// series names.
type Figure struct {
	Name   string
	XLabel string
	YLabel string
	Series []string
	Rows   []Row
}

// CSV renders the figure as comma-separated values with a header row.
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString("alive")
	for _, s := range f.Series {
		b.WriteByte(',')
		b.WriteString(s)
	}
	b.WriteByte('\n')
	for _, row := range f.Rows {
		fmt.Fprintf(&b, "%.2f", row.Alive)
		for _, s := range f.Series {
			fmt.Fprintf(&b, ",%.4f", row.Values[s])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// DefaultAliveFractions is the x-axis of Figs. 8-11: alive fractions
// from 10% to 100%.
func DefaultAliveFractions() []float64 {
	out := make([]float64, 0, 10)
	for f := 0.1; f <= 1.0001; f += 0.1 {
		out = append(out, f)
	}
	return out
}

// groupSeriesName labels a group's series like the paper's legends.
func groupSeriesName(t topic.Topic) string {
	return fmt.Sprintf("T%d", t.Depth())
}

// pointResult is what one sweep job contributes to a figure: the named
// series values at its x-axis point, plus bookkeeping for the run
// report.
type pointResult struct {
	values map[string]float64
	counts map[string]int64
	rounds int
}

// figureSpec declares one figure sweep: how to run a single point and
// produce its named series values.
type figureSpec struct {
	name   string
	xlabel string
	ylabel string
	// grid, when non-nil, pins the figure's canonical x-axis for a
	// given point count (see FigureXs); nil uses the default i/points
	// sweep over (0, 1].
	grid func(points int) []float64
	// runPoint executes one independent run (or, for comparison
	// figures like "recovery", a deterministic bundle of sub-runs) at
	// x-axis value x with the given seed, on kernelWorkers simnet
	// shards (0 = GOMAXPROCS).
	runPoint func(x float64, seed int64, kernelWorkers int) (pointResult, error)
}

// resultPoint adapts a full simulation Result to a pointResult.
func resultPoint(res *Result, extract func(*Result) map[string]float64) pointResult {
	return pointResult{values: extract(res), counts: res.KindTotals, rounds: res.Rounds}
}

// paperSpec builds the spec shared by Figs. 8-11: the paper topology
// with a per-figure failure mode and extractor.
func paperSpec(name, ylabel string, mode FailureMode, extract func(*Result) map[string]float64) figureSpec {
	return figureSpec{
		name:   name,
		xlabel: "fraction of alive processes",
		ylabel: ylabel,
		runPoint: func(x float64, seed int64, kernelWorkers int) (pointResult, error) {
			cfg := PaperConfig(x, seed)
			if mode != 0 {
				cfg.FailureMode = mode
			}
			cfg.Workers = kernelWorkers
			res, err := Run(cfg)
			if err != nil {
				return pointResult{}, err
			}
			return resultPoint(res, extract), nil
		},
	}
}

// putGroups stores each group's value of m in dst under the group's
// series name, prefixed, and returns dst.
func putGroups[V int64 | float64](dst map[string]float64, prefix string, m map[topic.Topic]V) map[string]float64 {
	for t, v := range m {
		dst[prefix+groupSeriesName(t)] = float64(v)
	}
	return dst
}

func extractIntra(res *Result) map[string]float64 {
	return putGroups(map[string]float64{}, "", res.Intra)
}

func extractInter(res *Result) map[string]float64 {
	out := map[string]float64{}
	for link, v := range res.Inter {
		name := fmt.Sprintf("%s->%s", groupSeriesName(link[0]), groupSeriesName(link[1]))
		out[name] = float64(v)
	}
	return out
}

func extractReliabilityAll(res *Result) map[string]float64 {
	return putGroups(map[string]float64{}, "", res.ReliabilityAll)
}

// churnSpec is the beyond-paper churn-wave sweep: x is the fraction of
// the publish group SURVIVING a crash wave two rounds into
// dissemination, so the curve reads like Figs. 10/11 (right edge = no
// churn).
func churnSpec() figureSpec {
	return figureSpec{
		name:   "churn",
		xlabel: "fraction surviving the churn wave",
		ylabel: "fraction of processes receiving",
		runPoint: func(x float64, seed int64, kernelWorkers int) (pointResult, error) {
			cfg := PaperConfig(1, seed)
			cfg.FailureMode = FailNone
			cfg.Workers = kernelWorkers
			sc := Scenario{
				Name:   "churn-wave",
				Rounds: 30, // gossip quiesces in ~O(log S) rounds; 30 is ample
				Events: []scenario.Event{
					{Round: 0, Kind: scenario.Publish},
					{Round: 2, Kind: scenario.CrashWave, Topic: cfg.PublishTopic, Fraction: 1 - x},
				},
			}
			res, err := RunScenario(cfg, sc)
			if err != nil {
				return pointResult{}, err
			}
			return resultPoint(res, extractReliabilityAll), nil
		},
	}
}

// recoveryRounds and recoveryPeriod pin the "recovery" figure's
// schedule: enough rounds for ~20 anti-entropy waves after the single
// publication at round 0.
const (
	recoveryRounds = 48
	recoveryPeriod = 2
)

// recoveryRun executes one lossy dissemination of the paper topology,
// with the anti-entropy recovery subsystem on or off.
func recoveryRun(psucc float64, seed int64, kernelWorkers int, recovery bool) (*Result, error) {
	cfg := PaperConfig(1, seed)
	cfg.FailureMode = FailNone
	cfg.PSucc = psucc
	cfg.Workers = kernelWorkers
	if recovery {
		cfg.Params.RecoverPeriod = recoveryPeriod
		cfg.Params.RecoverMaxAge = recoveryRounds + 1 // nothing ages out mid-figure
	}
	sc := Scenario{
		Name:   "recovery",
		Rounds: recoveryRounds,
		Events: []scenario.Event{{Round: 0, Kind: scenario.Publish}},
	}
	return RunScenario(cfg, sc)
}

// recoveryRootRun executes the root-revival stress: the root group is
// isolated from the rest of the hierarchy BEFORE the round-0
// publication, so it holds zero copies when the partition heals
// halfway through the run — by then gossip has quiesced, so only the
// anti-entropy plane can carry the event across the healed boundary.
// Intra-group recovery provably cannot (root members digest each
// other's identically empty stores); cross-group recovery revives the
// root through T1's upward digests.
func recoveryRootRun(psucc float64, seed int64, kernelWorkers int, cross bool) (*Result, error) {
	cfg := PaperConfig(1, seed)
	cfg.FailureMode = FailNone
	cfg.PSucc = psucc
	cfg.Workers = kernelWorkers
	cfg.Params.RecoverPeriod = recoveryPeriod
	cfg.Params.RecoverMaxAge = recoveryRounds + 1
	if cross {
		cfg.Params.CrossRecoverPeriod = recoveryPeriod
	}
	t0, _, _ := PaperTopics()
	sc := Scenario{
		Name:   "recovery-root",
		Rounds: recoveryRounds,
		Events: []scenario.Event{
			{Round: 0, Kind: scenario.Isolate, Topic: t0},
			{Round: 0, Kind: scenario.Publish},
			{Round: recoveryRounds / 2, Kind: scenario.Heal},
		},
	}
	return RunScenario(cfg, sc)
}

// recoverySpec is the anti-entropy figure: delivery ratio of the
// publish group under channel loss, best-effort baseline vs recovery
// enabled, plus the root-revival pair (see recoveryRootRun) showing
// what cross-group recovery adds over intra-group recovery alone. x is
// the channel success probability psucc (loss rate = 1-x), so the
// right edge is the lossless network, like the other figures. All
// sub-runs share the point's seed, which aligns the rounds before the
// first recovery wave and pairs away most of the outbreak variance;
// after that wave the recovery run's extra draws and sends shift the
// per-process and loss streams, so the epidemics diverge and dominance
// of the "recovery" series is an empirical property of the paired
// design (recovery keeps re-offering every held event until it lands),
// enforced at pinned seeds by TestRecoveryFigureDominatesBaseline —
// not a per-draw guarantee. The root pair is structural at the
// lossless edge: gossip quiesces long before the heal, so "root_intra"
// sits at exactly 0 (no root member ever holds a copy to exchange)
// while "root_cross" climbs the healed boundary. At lossy points the
// epidemic can still be sputtering when the partition heals, and
// recovery-driven re-dissemination inside T1 leaks upward through
// normal gossip, so there "root_intra" is merely dominated, not zero.
func recoverySpec() figureSpec {
	return figureSpec{
		name:   "recovery",
		xlabel: "channel success probability (1 - loss rate)",
		ylabel: "fraction of processes receiving",
		runPoint: func(x float64, seed int64, kernelWorkers int) (pointResult, error) {
			base, err := recoveryRun(x, seed, kernelWorkers, false)
			if err != nil {
				return pointResult{}, err
			}
			rec, err := recoveryRun(x, seed, kernelWorkers, true)
			if err != nil {
				return pointResult{}, err
			}
			rootIntra, err := recoveryRootRun(x, seed, kernelWorkers, false)
			if err != nil {
				return pointResult{}, err
			}
			rootCross, err := recoveryRootRun(x, seed, kernelWorkers, true)
			if err != nil {
				return pointResult{}, err
			}
			t0, _, t2 := PaperTopics()
			// Per-kind counts keep the sub-runs apart so reports
			// expose the recovery overhead next to the baseline.
			counts := make(map[string]int64, 4*len(rec.KindTotals))
			for prefix, res := range map[string]*Result{
				"base": base, "recovery": rec,
				"root_intra": rootIntra, "root_cross": rootCross,
			} {
				for k, v := range res.KindTotals {
					counts[prefix+":"+k] += v
				}
			}
			return pointResult{
				values: map[string]float64{
					"base":       base.ReliabilityAll[t2],
					"recovery":   rec.ReliabilityAll[t2],
					"root_intra": rootIntra.ReliabilityAll[t0],
					"root_cross": rootCross.ReliabilityAll[t0],
				},
				counts: counts,
				rounds: base.Rounds + rec.Rounds + rootIntra.Rounds + rootCross.Rounds,
			}, nil
		},
	}
}

// figureSpecs maps canonical figure names to their sweep specs.
func figureSpecs() map[string]figureSpec {
	return map[string]figureSpec{
		"fig8":          paperSpec("fig8", "events sent within group", 0, extractIntra),
		"fig9":          paperSpec("fig9", "intergroup events", 0, extractInter),
		"fig10":         paperSpec("fig10", "fraction of processes receiving", FailStillborn, extractReliabilityAll),
		"fig11":         paperSpec("fig11", "fraction of processes receiving", FailPerObserver, extractReliabilityAll),
		"churn":         churnSpec(),
		"recovery":      recoverySpec(),
		"recoverystore": recoveryStoreSpec(),
		"recoverydepth": recoveryDepthSpec(),
		"baselines":     baselinesSpec(),
		"scale":         scaleSpec(),
		"ablation":      ablationSpec(),
	}
}

// FigureNames lists the figure names GenerateFigure accepts, sorted.
func FigureNames() []string {
	specs := figureSpecs()
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// FigureOpts parameterizes a figure sweep.
type FigureOpts struct {
	// RunsPerPoint is how many independent runs are averaged per
	// x-axis point (minimum 1).
	RunsPerPoint int
	// SweepWorkers bounds the orchestrator's worker pool fanning runs
	// out: 0 = GOMAXPROCS, 1 = serial. Any value yields byte-identical
	// figure CSVs — seeds derive from (BaseSeed, figure, point, run),
	// never from scheduling.
	SweepWorkers int
	// BaseSeed roots the per-run seed derivation; 0 means 1.
	BaseSeed int64
}

// GenerateFigure sweeps the named figure over the given x values on
// the experiment orchestrator and returns the figure plus a
// machine-readable report of every underlying run. Known names are
// listed by FigureNames. The figure bytes depend only on (name, xs,
// RunsPerPoint, BaseSeed); worker counts change wall clock alone.
func GenerateFigure(ctx context.Context, name string, xs []float64, opts FigureOpts) (*Figure, *experiment.FigureReport, error) {
	spec, ok := figureSpecs()[name]
	if !ok {
		return nil, nil, fmt.Errorf("sim: unknown figure %q (want %v)", name, FigureNames())
	}
	runs := opts.RunsPerPoint
	if runs < 1 {
		runs = 1
	}
	baseSeed := opts.BaseSeed
	if baseSeed == 0 {
		baseSeed = 1
	}
	sweepWorkers := opts.SweepWorkers
	if sweepWorkers <= 0 {
		sweepWorkers = runtime.GOMAXPROCS(0)
	}
	// The simnet shard count per run: GOMAXPROCS (0) when the sweep
	// itself is serial, 1 when sweep workers already saturate the cores
	// (run-level parallelism beats round-level for many small runs).
	kernelWorkers := 0
	if sweepWorkers > 1 {
		kernelWorkers = 1
	}

	sample := experiment.BeginSample()
	n := len(xs) * runs
	recs, err := experiment.Map(ctx, sweepWorkers, n,
		func(_ context.Context, j int) (experiment.RunRecord, error) {
			pi, run := j/runs, j%runs
			seed := xrand.SeedFor(baseSeed, fmt.Sprintf("fig:%s:point:%d:run:%d", spec.name, pi, run))
			start := time.Now() //damcvet:allow detrand(WallNS is a wall-clock timing report, not a protocol result)
			res, err := spec.runPoint(xs[pi], seed, kernelWorkers)
			if err != nil {
				return experiment.RunRecord{}, err
			}
			return experiment.RunRecord{
				Point:  pi,
				X:      xs[pi],
				Run:    run,
				Seed:   seed,
				Rounds: res.rounds,
				WallNS: time.Since(start).Nanoseconds(), //damcvet:allow detrand(WallNS is a wall-clock timing report, not a protocol result)
				Counts: res.counts,
				Values: res.values,
			}, nil
		})
	if err != nil {
		return nil, nil, fmt.Errorf("figure %s: %w", name, err)
	}

	// Assemble rows serially in index order: averaging consumes the
	// records point-major exactly as the serial sweep produced them,
	// so floating-point accumulation order — and hence the CSV bytes —
	// cannot depend on the worker count.
	rows := make([]Row, 0, len(xs))
	nameSet := map[string]bool{}
	totals := map[string]int64{}
	for pi, x := range xs {
		acc := map[string]float64{}
		for run := 0; run < runs; run++ {
			rec := recs[pi*runs+run]
			for k, v := range rec.Values {
				acc[k] += v
				nameSet[k] = true
			}
			for k, v := range rec.Counts {
				totals[k] += v
			}
		}
		for k := range acc {
			acc[k] /= float64(runs)
		}
		rows = append(rows, Row{Alive: x, Values: acc})
	}
	names := make([]string, 0, len(nameSet))
	for k := range nameSet {
		names = append(names, k)
	}
	sort.Strings(names)

	wall, cpu, mwait := sample.End()
	report := &experiment.FigureReport{
		Name:          spec.name,
		XLabel:        spec.xlabel,
		YLabel:        spec.ylabel,
		RunsPerPoint:  runs,
		BaseSeed:      baseSeed,
		SweepWorkers:  sweepWorkers,
		KernelWorkers: kernelWorkers,
		WallNS:        wall,
		CPUNS:         cpu,
		MutexWaitNS:   mwait,
		Totals:        totals,
		Runs:          recs,
	}
	return &Figure{
		Name:   spec.name,
		XLabel: spec.xlabel,
		YLabel: spec.ylabel,
		Series: names,
		Rows:   rows,
	}, report, nil
}
