package sim

import (
	"errors"
	"testing"

	"damulticast/internal/scenario"
	"damulticast/internal/topic"
)

func TestScenarioValidate(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
		want error
	}{
		{"no rounds", Scenario{}, ErrBadRounds},
		{"round out of range", Scenario{Rounds: 5, Events: []scenario.Event{
			{Round: 5, Kind: scenario.Publish}}}, scenario.ErrBadEvent},
		{"bad fraction", Scenario{Rounds: 5, Events: []scenario.Event{
			{Round: 1, Kind: scenario.CrashWave, Fraction: 1.5}}}, scenario.ErrBadEvent},
		{"bad cells", Scenario{Rounds: 5, Events: []scenario.Event{
			{Round: 1, Kind: scenario.Partition, Cells: 1}}}, scenario.ErrBadEvent},
		{"bad burst psucc", Scenario{Rounds: 5, Events: []scenario.Event{
			{Round: 1, Kind: scenario.LossBurst}}}, scenario.ErrBadEvent},
		{"bad kind", Scenario{Rounds: 5, Events: []scenario.Event{
			{Round: 1, Kind: scenario.Kind(99)}}}, scenario.ErrKind},
		{"heal without partition", Scenario{Rounds: 5, Events: []scenario.Event{
			{Round: 1, Kind: scenario.Heal}}}, scenario.ErrNoPartition},
		{"heal before partition", Scenario{Rounds: 5, Events: []scenario.Event{
			{Round: 3, Kind: scenario.Partition, Cells: 2},
			{Round: 1, Kind: scenario.Heal}}}, scenario.ErrNoPartition},
	}
	for _, tc := range cases {
		if err := tc.sc.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	good := Scenario{Rounds: 10, Events: []scenario.Event{
		{Round: 0, Kind: scenario.Publish},
		{Round: 2, Kind: scenario.CrashWave, Fraction: 0.5},
		{Round: 3, Kind: scenario.FlashCrowd, Fraction: 1},
		{Round: 4, Kind: scenario.Partition, Cells: 2},
		{Round: 5, Kind: scenario.Heal},
		{Round: 6, Kind: scenario.LossBurst, PSucc: 0.5},
		{Round: 7, Kind: scenario.LossRestore},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
}

// TestScenarioRejectsUnknownTopic pins that an event aimed at a topic
// no group of the run holds fails the run up front instead of silently
// doing nothing — for every kind that takes a topic.
func TestScenarioRejectsUnknownTopic(t *testing.T) {
	cfg := PaperConfig(0.9, 3)
	for _, ev := range []scenario.Event{
		{Round: 1, Kind: scenario.Publish, Topic: ".nosuch"},
		{Round: 1, Kind: scenario.CrashWave, Topic: ".nosuch", Fraction: 0.5},
		{Round: 1, Kind: scenario.FlashCrowd, Topic: ".nosuch", Fraction: 1},
		{Round: 1, Kind: scenario.Partition, Topic: ".nosuch", Cells: 2},
		{Round: 1, Kind: scenario.Isolate, Topic: ".nosuch"},
	} {
		sc := Scenario{Name: "nosuch", Rounds: 4, Events: []scenario.Event{{Round: 0, Kind: scenario.Publish}, ev}}
		if _, err := RunScenario(cfg, sc); !errors.Is(err, scenario.ErrTopic) {
			t.Errorf("%v on %s: err = %v, want %v", ev.Kind, ev.Topic, err, scenario.ErrTopic)
		}
	}
}

func TestScenarioKindString(t *testing.T) {
	for k, want := range map[scenario.Kind]string{
		scenario.Publish:    "publish",
		scenario.CrashWave:  "crash-wave",
		scenario.FlashCrowd: "flash-crowd",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
	if scenario.Kind(42).String() == "" {
		t.Error("unknown kind has empty name")
	}
}

func TestScenarioCrashWaveReducesAlive(t *testing.T) {
	cfg := flatConfig(200, 9, 1)
	res, err := RunScenario(cfg, Scenario{
		Name:   "wave",
		Rounds: 10,
		Events: []scenario.Event{
			{Round: 0, Kind: scenario.Publish},
			{Round: 2, Kind: scenario.CrashWave, Fraction: 0.5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Alive[topic.Root]; got != 100 {
		t.Errorf("alive after 50%% wave = %d, want 100", got)
	}
	if res.Rounds != 10 {
		t.Errorf("rounds = %d", res.Rounds)
	}
}

func TestScenarioFlashCrowdRestoresDelivery(t *testing.T) {
	// Half the group is stillborn; the first publication cannot reach
	// them. After the flash crowd subscribes everyone, a second
	// publication must reach (nearly) the whole group, pulling average
	// delivered-of-all above the 50% ceiling of the first event.
	cfg := flatConfig(200, 17, 1)
	cfg.AliveFraction = 0.5
	cfg.FailureMode = FailStillborn
	cfg.PSucc = 1
	res, err := RunScenario(cfg, Scenario{
		Name:   "flash",
		Rounds: 20,
		Events: []scenario.Event{
			{Round: 0, Kind: scenario.Publish},
			{Round: 10, Kind: scenario.FlashCrowd, Fraction: 1},
			{Round: 10, Kind: scenario.Publish},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Alive[topic.Root]; got != 200 {
		t.Errorf("alive after flash crowd = %d, want 200", got)
	}
	// Average of (≈0.5, ≈1.0) over the two publications.
	if rel := res.ReliabilityAll[topic.Root]; rel < 0.6 {
		t.Errorf("post-flash-crowd mean delivery = %g, want > 0.6", rel)
	}
}

func TestScenarioPartitionBlocksThenHeals(t *testing.T) {
	// With the group split in two cells and lossless channels, an
	// event published inside the partition stays in its cell: strictly
	// fewer deliveries than the healed run.
	base := flatConfig(200, 23, 1)
	base.PSucc = 1
	partitioned, err := RunScenario(base, Scenario{
		Name:   "split",
		Rounds: 12,
		Events: []scenario.Event{
			{Round: 0, Kind: scenario.Partition, Cells: 2},
			{Round: 0, Kind: scenario.Publish},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	open, err := RunScenario(base, Scenario{
		Name:   "open",
		Rounds: 12,
		Events: []scenario.Event{{Round: 0, Kind: scenario.Publish}},
	})
	if err != nil {
		t.Fatal(err)
	}
	relPart := partitioned.Reliability[topic.Root]
	relOpen := open.Reliability[topic.Root]
	if relOpen < 0.99 {
		t.Fatalf("lossless un-partitioned delivery = %g", relOpen)
	}
	if relPart > 0.75 {
		t.Errorf("partitioned delivery = %g, want well under the open %g", relPart, relOpen)
	}
	// Heal before publishing: full delivery returns.
	healed, err := RunScenario(base, Scenario{
		Name:   "healed",
		Rounds: 12,
		Events: []scenario.Event{
			{Round: 0, Kind: scenario.Partition, Cells: 2},
			{Round: 1, Kind: scenario.Heal},
			{Round: 1, Kind: scenario.Publish},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel := healed.Reliability[topic.Root]; rel < 0.99 {
		t.Errorf("healed delivery = %g", rel)
	}
}

func TestScenarioLossBurstDegradesDelivery(t *testing.T) {
	base := flatConfig(200, 31, 1)
	base.PSucc = 1
	burst, err := RunScenario(base, Scenario{
		Name:   "burst",
		Rounds: 12,
		Events: []scenario.Event{
			{Round: 0, Kind: scenario.LossBurst, PSucc: 0.05},
			{Round: 0, Kind: scenario.Publish},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel := burst.Reliability[topic.Root]; rel > 0.9 {
		t.Errorf("delivery through 95%% loss = %g", rel)
	}
	// Restore, then publish: the restored run delivers fully.
	restored, err := RunScenario(base, Scenario{
		Name:   "restored",
		Rounds: 12,
		Events: []scenario.Event{
			{Round: 0, Kind: scenario.LossBurst, PSucc: 0.05},
			{Round: 2, Kind: scenario.LossRestore},
			{Round: 2, Kind: scenario.Publish},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel := restored.Reliability[topic.Root]; rel < 0.99 {
		t.Errorf("post-restore delivery = %g", rel)
	}
}

func TestScenarioPublishOverrideTopic(t *testing.T) {
	// Publishing on a supergroup topic mid-scenario must not leak to
	// the subgroup (events flow up, never down).
	t0, t1, t2 := PaperTopics()
	cfg := smallConfig(1, 3)
	cfg.PSucc = 1
	cfg.FailureMode = FailNone
	res, err := RunScenario(cfg, Scenario{
		Name:   "up-only",
		Rounds: 20,
		Events: []scenario.Event{
			{Round: 0, Kind: scenario.Publish, Topic: t1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parasites != 0 {
		t.Errorf("parasites = %d", res.Parasites)
	}
	if rel := res.Reliability[t2]; rel != 0 {
		t.Errorf("T2 received a T1 event: %g", rel)
	}
	if rel := res.Reliability[t0]; rel == 0 {
		t.Error("T0 never received the T1 event")
	}
}

func TestBuiltinScenarios(t *testing.T) {
	for _, name := range BuiltinScenarioNames() {
		t.Run(name, func(t *testing.T) {
			cfg, sc, err := BuiltinScenario(name, 120, 0, 0, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := sc.Validate(); err != nil {
				t.Fatalf("builtin scenario invalid: %v", err)
			}
			res, err := RunScenario(cfg, sc)
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalEvents == 0 {
				t.Error("scenario sent nothing")
			}
			if res.Parasites != 0 {
				t.Errorf("parasites = %d", res.Parasites)
			}
		})
	}
	if _, _, err := BuiltinScenario("bogus", 100, 0, 0, 1, 1); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, _, err := BuiltinScenario("churn", 1, 0, 0, 1, 1); err == nil {
		t.Error("single-process scenario accepted")
	}
}

func TestFigureChurnSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size sweep")
	}
	fig := serialFigure(t, "churn", []float64{0.5, 1.0})
	if len(fig.Rows) != 2 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	// No churn (right edge) must deliver at least as well as a 50% wave.
	if fig.Rows[1].Values["T2"] < fig.Rows[0].Values["T2"] {
		t.Errorf("churn sweep not monotone: %v vs %v", fig.Rows[1].Values, fig.Rows[0].Values)
	}
	if fig.Rows[1].Values["T2"] < 0.9 {
		t.Errorf("no-churn delivery = %g", fig.Rows[1].Values["T2"])
	}
}
