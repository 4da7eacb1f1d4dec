package sim

import (
	"fmt"
	"sort"

	"damulticast/internal/core"
	"damulticast/internal/scenario"
	"damulticast/internal/topic"
)

// flatConfig builds a single-group (root topic) configuration of n
// processes with static tables — the workhorse for large-scale
// scenario runs (20k-50k processes on the sharded kernel).
func flatConfig(n int, seed int64, workers int) Config {
	params := core.DefaultParams()
	params.ShufflePeriod = 0
	params.MaintainPeriod = 0
	return Config{
		Groups:        []GroupSpec{{Topic: topic.Root, Size: n}},
		Params:        params,
		PSucc:         0.85,
		AliveFraction: 1,
		FailureMode:   FailNone,
		PublishTopic:  topic.Root,
		MaxRounds:     200,
		Seed:          seed,
		Workers:       workers,
	}
}

// BuiltinScenario returns a named ready-to-run (Config, Scenario) pair
// over a single group of n processes. Supported names:
//
//   - "churn": publish, then a crash wave of `intensity` of the group,
//     a later flash-crowd rejoin of everyone stopped, and a second
//     publication against the recovered group.
//   - "flashcrowd": start with `intensity` of the group unsubscribed
//     (stillborn), publish, then have the whole crowd subscribe at
//     once and publish again.
//   - "partition": split the group in two cells mid-dissemination,
//     publish inside the partition, heal, and publish again.
//   - "lossburst": degrade the channel success probability to
//     `intensity` mid-run, publish through the burst, restore, and
//     publish again.
//
// intensity is the scenario's knob in [0, 1] (crash fraction,
// unsubscribed fraction, or burst success probability). rounds bounds
// the run; 0 selects a default per scenario, and fewer than 8 rounds
// is rejected — the presets pin their fault events at rounds 1-2 and
// their recovery at the midpoint, which degenerates (recovery sorted
// before the fault) on shorter runs.
func BuiltinScenario(name string, n int, intensity float64, rounds int, seed int64, workers int) (Config, Scenario, error) {
	if n < 2 {
		return Config{}, Scenario{}, fmt.Errorf("sim: scenario needs >= 2 processes, got %d", n)
	}
	if rounds <= 0 {
		rounds = 24
	}
	if rounds < 8 {
		return Config{}, Scenario{}, fmt.Errorf("sim: scenario needs >= 8 rounds, got %d", rounds)
	}
	cfg := flatConfig(n, seed, workers)
	mid := rounds / 2
	switch name {
	case "churn":
		if intensity <= 0 {
			intensity = 0.3
		}
		return cfg, Scenario{
			Name:   "churn",
			Rounds: rounds,
			Events: []scenario.Event{
				{Round: 0, Kind: scenario.Publish},
				{Round: 2, Kind: scenario.CrashWave, Fraction: intensity},
				{Round: mid, Kind: scenario.FlashCrowd, Fraction: 1},
				{Round: mid, Kind: scenario.Publish},
			},
		}, nil
	case "flashcrowd":
		if intensity <= 0 {
			intensity = 0.5
		}
		cfg.AliveFraction = 1 - intensity
		cfg.FailureMode = FailStillborn
		return cfg, Scenario{
			Name:   "flashcrowd",
			Rounds: rounds,
			Events: []scenario.Event{
				{Round: 0, Kind: scenario.Publish},
				{Round: mid, Kind: scenario.FlashCrowd, Fraction: 1},
				{Round: mid, Kind: scenario.Publish},
			},
		}, nil
	case "partition":
		return cfg, Scenario{
			Name:   "partition",
			Rounds: rounds,
			Events: []scenario.Event{
				{Round: 0, Kind: scenario.Publish},
				{Round: 1, Kind: scenario.Partition, Cells: 2},
				{Round: 2, Kind: scenario.Publish},
				{Round: mid, Kind: scenario.Heal},
				{Round: mid, Kind: scenario.Publish},
			},
		}, nil
	case "lossburst":
		if intensity <= 0 {
			intensity = 0.4
		}
		return cfg, Scenario{
			Name:   "lossburst",
			Rounds: rounds,
			Events: []scenario.Event{
				{Round: 0, Kind: scenario.Publish},
				{Round: 1, Kind: scenario.LossBurst, PSucc: intensity},
				{Round: 2, Kind: scenario.Publish},
				{Round: mid, Kind: scenario.LossRestore},
				{Round: mid, Kind: scenario.Publish},
			},
		}, nil
	default:
		return Config{}, Scenario{}, fmt.Errorf("sim: unknown scenario %q (want %v)", name, BuiltinScenarioNames())
	}
}

// BuiltinScenarioNames lists the scenarios BuiltinScenario accepts.
func BuiltinScenarioNames() []string {
	names := []string{"churn", "flashcrowd", "partition", "lossburst"}
	sort.Strings(names)
	return names
}
