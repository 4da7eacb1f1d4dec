package sim

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"damulticast/internal/core"
	"damulticast/internal/topic"
)

// smallConfig is a fast three-level chain for unit tests.
func smallConfig(alive float64, seed int64) Config {
	t0, t1, t2 := PaperTopics()
	params := core.DefaultParams()
	params.ShufflePeriod = 0
	params.MaintainPeriod = 0
	return Config{
		Groups: []GroupSpec{
			{Topic: t0, Size: 5},
			{Topic: t1, Size: 20},
			{Topic: t2, Size: 60},
		},
		Params:        params,
		PSucc:         0.95,
		AliveFraction: alive,
		FailureMode:   FailStillborn,
		PublishTopic:  t2,
		Publications:  1,
		MaxRounds:     100,
		Seed:          seed,
	}
}

func TestConfigValidate(t *testing.T) {
	t0, t1, t2 := PaperTopics()
	good := smallConfig(1, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr error
	}{
		{"no groups", func(c *Config) { c.Groups = nil }, ErrNoGroups},
		{"bad size", func(c *Config) { c.Groups[0].Size = 0 }, ErrBadSize},
		{"bad psucc low", func(c *Config) { c.PSucc = 0 }, ErrBadPSucc},
		{"bad psucc high", func(c *Config) { c.PSucc = 1.5 }, ErrBadPSucc},
		{"bad alive", func(c *Config) { c.AliveFraction = -0.1 }, ErrBadAlive},
		{"no publisher", func(c *Config) { c.PublishTopic = ".nope" }, ErrNoPublisher},
		{"bad mode", func(c *Config) { c.FailureMode = 0 }, ErrBadMode},
		{"dup topic", func(c *Config) { c.Groups[1].Topic = c.Groups[0].Topic }, ErrDupGroupTopic},
	}
	for _, tc := range cases {
		cfg := smallConfig(1, 1)
		tc.mutate(&cfg)
		if err := cfg.Validate(); !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
		}
	}
	_ = t0
	_ = t1
	_ = t2
	// Invalid core params bubble up.
	cfg := smallConfig(1, 1)
	cfg.Params.Z = 0
	if err := cfg.Validate(); err == nil {
		t.Error("invalid params accepted")
	}
	// Invalid group topic.
	cfg = smallConfig(1, 1)
	cfg.Groups[0].Topic = "junk"
	if err := cfg.Validate(); err == nil {
		t.Error("invalid group topic accepted")
	}
}

func TestFailureModeString(t *testing.T) {
	if FailNone.String() != "none" || FailStillborn.String() != "stillborn" ||
		FailPerObserver.String() != "per-observer" {
		t.Error("mode names wrong")
	}
	if !strings.Contains(FailureMode(9).String(), "9") {
		t.Error("unknown mode string")
	}
}

func TestPaperConfig(t *testing.T) {
	cfg := PaperConfig(0.8, 42)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("paper config invalid: %v", err)
	}
	sizes := map[int]bool{}
	for _, g := range cfg.Groups {
		sizes[g.Size] = true
	}
	for _, want := range []int{10, 100, 1000} {
		if !sizes[want] {
			t.Errorf("missing group size %d", want)
		}
	}
	if cfg.PSucc != 0.85 {
		t.Errorf("PSucc = %g", cfg.PSucc)
	}
	if cfg.Params.B != 3 || cfg.Params.C != 5 || cfg.Params.G != 5 ||
		cfg.Params.A != 1 || cfg.Params.Z != 3 {
		t.Errorf("params deviate from §VII-A: %+v", cfg.Params)
	}
}

func TestRunNoFailuresFullReliability(t *testing.T) {
	cfg := smallConfig(1, 7)
	cfg.FailureMode = FailNone
	cfg.PSucc = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for tp, rel := range res.Reliability {
		if rel != 1 {
			t.Errorf("group %s reliability = %g, want 1 (lossless, no failures)", tp, rel)
		}
		if !res.AllAliveReached[tp] {
			t.Errorf("group %s not fully reached", tp)
		}
	}
	if res.Parasites != 0 {
		t.Errorf("parasites = %d", res.Parasites)
	}
	if res.TotalEvents == 0 {
		t.Error("no events counted")
	}
	if res.Rounds == 0 {
		t.Error("no rounds ran")
	}
	// Latency: the publish group delivers first (round 1); supergroups
	// strictly later, in hierarchy order.
	t0, t1, t2 := PaperTopics()
	r2, ok2 := res.FirstDeliveryRound[t2]
	r1, ok1 := res.FirstDeliveryRound[t1]
	r0, ok0 := res.FirstDeliveryRound[t0]
	if !ok2 || !ok1 || !ok0 {
		t.Fatalf("missing first-delivery rounds: %v", res.FirstDeliveryRound)
	}
	if r2 != 1 {
		t.Errorf("publish group first delivery at round %d, want 1", r2)
	}
	if !(r2 <= r1 && r1 <= r0) {
		t.Errorf("latency not ordered up the hierarchy: T2=%d T1=%d T0=%d", r2, r1, r0)
	}
}

func TestRunIntraScalesWithGroupSize(t *testing.T) {
	cfg := smallConfig(1, 3)
	cfg.FailureMode = FailNone
	cfg.PSucc = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, t1, t2 := PaperTopics()
	// S·(ln S + c): T2 (60 processes) must send far more than T1 (20).
	if res.Intra[t2] <= res.Intra[t1] {
		t.Errorf("intra T2 (%d) <= intra T1 (%d)", res.Intra[t2], res.Intra[t1])
	}
	// Rough magnitude: between S·lnS and 1.3·S·(ln S + c).
	s := 60.0
	upper := 1.3 * s * (math.Log(s) + 5)
	if got := float64(res.Intra[t2]); got < s || got > upper {
		t.Errorf("intra T2 = %g outside [%g, %g]", got, s, upper)
	}
}

func TestRunInterGroupLinksExist(t *testing.T) {
	cfg := smallConfig(1, 5)
	cfg.FailureMode = FailNone
	cfg.PSucc = 1
	// Boost g so upward election is near-certain even in small groups.
	cfg.Params.G = 1000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t0, t1, t2 := PaperTopics()
	if res.Inter[[2]topic.Topic{t2, t1}] == 0 {
		t.Error("no T2->T1 events")
	}
	if res.Inter[[2]topic.Topic{t1, t0}] == 0 {
		t.Error("no T1->T0 events")
	}
	// Events never flow downward.
	if res.Inter[[2]topic.Topic{t1, t2}] != 0 || res.Inter[[2]topic.Topic{t0, t1}] != 0 {
		t.Error("events flowed downward")
	}
}

func TestRunStillbornReducesMessages(t *testing.T) {
	full, err := Run(smallConfig(1, 11))
	if err != nil {
		t.Fatal(err)
	}
	half, err := Run(smallConfig(0.5, 11))
	if err != nil {
		t.Fatal(err)
	}
	if half.TotalEvents >= full.TotalEvents {
		t.Errorf("half-alive events (%d) >= full (%d)", half.TotalEvents, full.TotalEvents)
	}
	_, _, t2 := PaperTopics()
	if half.Alive[t2] >= full.Alive[t2] {
		t.Errorf("alive counts wrong: %d vs %d", half.Alive[t2], full.Alive[t2])
	}
}

func TestRunPerObserverBeatsStillborn(t *testing.T) {
	// At the same nominal failure level, the weakly consistent model
	// must yield (weakly) better reliability: processes are actually
	// alive and reachable through other observers (Fig. 11 vs 10).
	const alive = 0.5
	var relStill, relObs float64
	const runs = 5
	_, _, t2 := PaperTopics()
	for seed := int64(0); seed < runs; seed++ {
		s, err := Run(smallConfig(alive, 100+seed))
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallConfig(alive, 100+seed)
		cfg.FailureMode = FailPerObserver
		o, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		relStill += s.ReliabilityAll[t2]
		relObs += o.ReliabilityAll[t2]
	}
	if relObs < relStill {
		t.Errorf("per-observer reliability (%g) < stillborn (%g)", relObs/runs, relStill/runs)
	}
}

func TestRunNeverProducesParasites(t *testing.T) {
	for _, alive := range []float64{0.3, 0.7, 1.0} {
		for seed := int64(0); seed < 3; seed++ {
			res, err := Run(smallConfig(alive, seed))
			if err != nil {
				t.Fatal(err)
			}
			if res.Parasites != 0 {
				t.Fatalf("alive=%g seed=%d: %d parasites", alive, seed, res.Parasites)
			}
		}
	}
}

func TestRunMultiplePublications(t *testing.T) {
	cfg := smallConfig(1, 9)
	cfg.FailureMode = FailNone
	cfg.PSucc = 1
	cfg.Publications = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Run(func() Config {
		c := smallConfig(1, 9)
		c.FailureMode = FailNone
		c.PSucc = 1
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	// Three publications send roughly three times the messages.
	lo, hi := 2*single.TotalEvents, 4*single.TotalEvents
	if res.TotalEvents < lo || res.TotalEvents > hi {
		t.Errorf("3 pubs = %d events, single = %d", res.TotalEvents, single.TotalEvents)
	}
	for tp, rel := range res.Reliability {
		if rel != 1 {
			t.Errorf("group %s reliability = %g", tp, rel)
		}
	}
}

func TestRunZeroAliveFails(t *testing.T) {
	cfg := smallConfig(0, 1)
	if _, err := Run(cfg); err == nil {
		t.Error("run with zero alive publishers succeeded")
	}
}

func TestRunnerAccessors(t *testing.T) {
	r, err := NewRunner(smallConfig(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	_, _, t2 := PaperTopics()
	if len(r.Group(t2)) != 60 {
		t.Errorf("group size = %d", len(r.Group(t2)))
	}
	if r.Registry() == nil {
		t.Error("nil registry")
	}
	// Table sizing: (b+1)·ln(60) = 4·4.09 = 16.4 -> 17.
	p := r.Group(t2)[0]
	if got := len(p.TopicTable()); got != 17 {
		t.Errorf("topic table size = %d, want 17", got)
	}
	if got := len(p.SuperTable()); got != 3 {
		t.Errorf("super table size = %d, want z=3", got)
	}
	if p.SuperKnownTopic().Depth() != 1 {
		t.Errorf("super topic = %s", p.SuperKnownTopic())
	}
}

func TestRunnerSkipsMissingIntermediateGroup(t *testing.T) {
	// Hierarchy with a hole: .t1.t2 exists, .t1 does not, root does.
	// T2's supergroup must resolve to the root (nearest inducing topic).
	t0, _, t2 := PaperTopics()
	params := core.DefaultParams()
	params.ShufflePeriod = 0
	params.MaintainPeriod = 0
	cfg := Config{
		Groups: []GroupSpec{
			{Topic: t0, Size: 5},
			{Topic: t2, Size: 20},
		},
		Params:        params,
		PSucc:         1,
		AliveFraction: 1,
		FailureMode:   FailNone,
		PublishTopic:  t2,
		MaxRounds:     50,
		Seed:          4,
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := r.Group(t2)[0]
	if p.SuperKnownTopic() != t0 {
		t.Errorf("super topic = %s, want root", p.SuperKnownTopic())
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Reliability[t0] == 0 {
		t.Error("root group unreachable across the hole")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := Run(smallConfig(0.6, 77))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(0.6, 77))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalEvents != b.TotalEvents {
		t.Errorf("non-deterministic: %d vs %d events", a.TotalEvents, b.TotalEvents)
	}
	for tp := range a.Reliability {
		if a.Reliability[tp] != b.Reliability[tp] {
			t.Errorf("non-deterministic reliability for %s", tp)
		}
	}
}

func TestDefaultAliveFractions(t *testing.T) {
	fs := DefaultAliveFractions()
	if len(fs) != 10 {
		t.Fatalf("len = %d", len(fs))
	}
	if math.Abs(fs[0]-0.1) > 1e-9 || math.Abs(fs[9]-1.0) > 1e-9 {
		t.Errorf("range = [%g, %g]", fs[0], fs[9])
	}
}

// serialFigure runs one figure sweep with one run per point on a
// single sweep worker.
func serialFigure(t *testing.T, name string, xs []float64) *Figure {
	t.Helper()
	fig, _, err := GenerateFigure(context.Background(), name, xs,
		FigureOpts{RunsPerPoint: 1, SweepWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return fig
}

func TestFigureSweepsSmall(t *testing.T) {
	// Use tiny sweeps over the small config by temporarily running the
	// real figure code paths on two alive fractions (the paper-size
	// config is exercised by the benchmarks).
	alives := []float64{0.5, 1.0}
	fig8 := serialFigure(t, "fig8", alives)
	if len(fig8.Rows) != 2 || len(fig8.Series) != 3 {
		t.Errorf("fig8 rows=%d series=%v", len(fig8.Rows), fig8.Series)
	}
	// T2 sends the most messages (largest group).
	last := fig8.Rows[1].Values
	if !(last["T2"] > last["T1"] && last["T1"] > last["T0"]) {
		t.Errorf("fig8 ordering broken: %v", last)
	}
	csv := fig8.CSV()
	if !strings.HasPrefix(csv, "alive,T0,T1,T2\n") {
		t.Errorf("csv header: %q", strings.SplitN(csv, "\n", 2)[0])
	}
	if lines := strings.Count(csv, "\n"); lines != 3 {
		t.Errorf("csv lines = %d", lines)
	}

	fig9 := serialFigure(t, "fig9", alives)
	if len(fig9.Series) == 0 {
		t.Error("fig9 has no series")
	}
	for _, s := range fig9.Series {
		if !strings.Contains(s, "->") {
			t.Errorf("fig9 series %q not a link", s)
		}
	}

	fig10 := serialFigure(t, "fig10", alives)
	for _, row := range fig10.Rows {
		for s, v := range row.Values {
			if v < 0 || v > 1 {
				t.Errorf("fig10 %s at %g = %g outside [0,1]", s, row.Alive, v)
			}
		}
	}
	// Full-alive reliability should be high for T2.
	if v := fig10.Rows[1].Values["T2"]; v < 0.9 {
		t.Errorf("fig10 T2 at alive=1 = %g", v)
	}

	fig11 := serialFigure(t, "fig11", alives)
	// Weakly consistent failures beat stillborn at alive=0.5 for T2.
	if fig11.Rows[0].Values["T2"] < fig10.Rows[0].Values["T2"]-0.05 {
		t.Errorf("fig11 (%g) worse than fig10 (%g) at alive=0.5",
			fig11.Rows[0].Values["T2"], fig10.Rows[0].Values["T2"])
	}
}
