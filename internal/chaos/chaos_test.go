package chaos

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"damulticast/internal/scenario"
)

func TestGenScheduleReplaysIdentically(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		a := scenario.GenSchedule(seed, 14)
		b := scenario.GenSchedule(seed, 14)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: schedule not reproducible:\n%v\n%v", seed, a, b)
		}
	}
	if reflect.DeepEqual(scenario.GenSchedule(1, 14), scenario.GenSchedule(2, 14)) {
		t.Error("seeds 1 and 2 yielded identical schedules; generator ignores its seed?")
	}
}

// TestGenSchedulePinned pins GenSchedule's exact output for three
// seeds as (step, kind, count, cells, drop probability) tuples, so a
// soak seed keeps naming the same fault script.
func TestGenSchedulePinned(t *testing.T) {
	want := map[int64][]string{
		1: {
			"0 publish 0 0 0.000000000",
			"1 partition 0 2 0.000000000",
			"2 publish 0 0 0.000000000",
			"3 crash-wave 1 0 0.000000000",
			"4 loss-burst 0 0 0.395295734",
			"5 publish 0 0 0.000000000",
			"6 heal 0 0 0.000000000",
			"6 loss-restore 0 0 0.000000000",
			"7 flash-crowd 0 0 0.000000000",
			"10 publish 0 0 0.000000000",
			"11 publish 0 0 0.000000000",
			"12 publish 0 0 0.000000000",
			"13 publish 0 0 0.000000000",
		},
		7: {
			"0 publish 0 0 0.000000000",
			"2 partition 0 2 0.000000000",
			"3 publish 0 0 0.000000000",
			"4 crash-wave 3 0 0.000000000",
			"5 loss-burst 0 0 0.438997626",
			"6 publish 0 0 0.000000000",
			"7 heal 0 0 0.000000000",
			"7 loss-restore 0 0 0.000000000",
			"8 flash-crowd 0 0 0.000000000",
			"9 publish 0 0 0.000000000",
			"10 publish 0 0 0.000000000",
			"11 publish 0 0 0.000000000",
			"13 publish 0 0 0.000000000",
		},
		42: {
			"0 publish 0 0 0.000000000",
			"2 partition 0 2 0.000000000",
			"3 publish 0 0 0.000000000",
			"4 crash-wave 2 0 0.000000000",
			"5 loss-burst 0 0 0.458915789",
			"6 publish 0 0 0.000000000",
			"7 heal 0 0 0.000000000",
			"7 loss-restore 0 0 0.000000000",
			"8 flash-crowd 0 0 0.000000000",
			"9 publish 0 0 0.000000000",
			"11 publish 0 0 0.000000000",
			"12 publish 0 0 0.000000000",
			"13 publish 0 0 0.000000000",
		},
	}
	for seed, w := range want {
		var got []string
		for _, ev := range scenario.GenSchedule(seed, 14) {
			drop := 0.0
			if ev.Kind == scenario.LossBurst {
				drop = 1 - ev.PSucc
			}
			got = append(got, fmt.Sprintf("%d %s %d %d %.9f", ev.Round, ev.Kind, ev.Count, ev.Cells, drop))
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("seed %d: scenario.GenSchedule(%d, 14) =\n%s\nwant\n%s", seed, seed,
				strings.Join(got, "\n"), strings.Join(w, "\n"))
		}
	}
}

func TestGenScheduleCoversEveryFaultKind(t *testing.T) {
	cfg := partitionConfig(true)
	cfg.Schedule = scenario.GenSchedule(3, 14)
	if err := cfg.withDefaults().validate(); err != nil {
		t.Errorf("generated schedule invalid: %v", err)
	}
	kinds := make(map[scenario.Kind]bool)
	for _, ev := range cfg.Schedule {
		kinds[ev.Kind] = true
	}
	for _, k := range soakKinds {
		if !kinds[k] {
			t.Errorf("schedule never fires %v", k)
		}
	}
	last := cfg.Schedule[len(cfg.Schedule)-1]
	if last.Kind != scenario.Publish {
		t.Errorf("schedule ends with %v, want a trailing publish", last.Kind)
	}
}

func TestFaultValidate(t *testing.T) {
	cases := []struct {
		name string
		ev   scenario.Event
		want error // nil = valid
	}{
		{"publish", scenario.Event{Kind: scenario.Publish}, nil},
		{"negative step", scenario.Event{Round: -1, Kind: scenario.Publish}, scenario.ErrBadEvent},
		{"kill no count", scenario.Event{Kind: scenario.CrashWave}, scenario.ErrBadEvent},
		{"kill", scenario.Event{Kind: scenario.CrashWave, Count: 2}, nil},
		{"kill fraction", scenario.Event{Kind: scenario.CrashWave, Count: 2, Fraction: 0.5}, scenario.ErrBadEvent},
		{"kill topic", scenario.Event{Kind: scenario.CrashWave, Count: 2, Topic: ".beta"}, nil},
		{"kill unknown topic", scenario.Event{Kind: scenario.CrashWave, Count: 2, Topic: ".nosuch"}, scenario.ErrTopic},
		{"restart unknown topic", scenario.Event{Kind: scenario.FlashCrowd, Topic: ".nosuch"}, scenario.ErrTopic},
		{"partition topic", scenario.Event{Kind: scenario.Partition, Cells: 2, Topic: ".beta"}, scenario.ErrBadEvent},
		{"partition one cell", scenario.Event{Kind: scenario.Partition, Cells: 1}, scenario.ErrBadEvent},
		{"partition", scenario.Event{Kind: scenario.Partition, Cells: 2}, nil},
		{"loss rate 1", scenario.Event{Kind: scenario.LossBurst, PSucc: 0}, scenario.ErrBadEvent},
		{"loss", scenario.Event{Kind: scenario.LossBurst, PSucc: 0.7}, nil},
		{"stragglers", scenario.Event{Kind: scenario.Stragglers, Fraction: 0.2, Delay: 2}, scenario.ErrKind},
		{"unknown", scenario.Event{Kind: scenario.Kind(99)}, scenario.ErrKind},
	}
	for _, tc := range cases {
		cfg := partitionConfig(true)
		cfg.Schedule = []scenario.Event{tc.ev}
		err := cfg.withDefaults().validate()
		if (err == nil) != (tc.want == nil) || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Errorf("%s: validate() = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// partitionSchedule publishes once on a healthy cluster, then twice
// inside a two-cell partition, then heals: without recovery the
// cross-cell halves permanently miss the partitioned events.
func partitionSchedule() []scenario.Event {
	return []scenario.Event{
		{Round: 0, Kind: scenario.Publish},
		{Round: 1, Kind: scenario.Partition, Cells: 2},
		{Round: 2, Kind: scenario.Publish},
		{Round: 3, Kind: scenario.Publish},
		{Round: 5, Kind: scenario.Heal},
	}
}

func partitionConfig(recovery bool) Config {
	return Config{
		Endpoints: 12,
		Topics:    []string{".alpha", ".beta"},
		Seed:      11,
		Tick:      10 * time.Millisecond,
		Step:      80 * time.Millisecond,
		Settle:    1500 * time.Millisecond,
		Recovery:  recovery,
		Schedule:  partitionSchedule(),
		SLO:       0.99,
	}
}

func TestPartitionHealMeetsSLOWithRecovery(t *testing.T) {
	rep, err := Run(partitionConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("reliability %.4f, per-topic %v, recovered %d, partition drops %d",
		rep.Reliability, rep.PerTopic, rep.Final.Recovered, rep.Final.PartitionDrops)
	if !rep.MetSLO {
		t.Errorf("reliability %.4f below SLO 0.99 despite recovery", rep.Reliability)
	}
	if rep.Final.PartitionDrops == 0 {
		t.Error("partition never dropped a frame; fault fabric inert?")
	}
	if rep.Final.Recovered == 0 {
		t.Error("recovery plane never recovered an event across the heal")
	}
}

func TestPartitionWithoutRecoveryMissesSLO(t *testing.T) {
	rep, err := Run(partitionConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("reliability %.4f without recovery", rep.Reliability)
	// Two of the three events per topic were published inside the
	// partition; without a recovery plane roughly half their
	// subscribers never see them.
	if rep.Reliability >= 0.9 {
		t.Errorf("reliability %.4f without recovery; expected the partitioned events to stay lost", rep.Reliability)
	}
	if rep.MetSLO {
		t.Error("run without recovery claims to meet the SLO")
	}
}

// TestChaosSoak is the full harness: 24 real TCP endpoints, three
// topics, a seeded schedule covering kills, restarts, a partition and
// a loss burst — graded against the 99% delivery SLO over surviving
// subscribers after the settle window.
func TestChaosSoak(t *testing.T) {
	cfg := Config{
		Endpoints: 24,
		Topics:    []string{".t0", ".t1", ".t2"},
		Seed:      5,
		Tick:      10 * time.Millisecond,
		Step:      80 * time.Millisecond,
		Settle:    2 * time.Second,
		Recovery:  true,
		Schedule:  scenario.GenSchedule(5, 14),
		SLO:       0.99,
	}
	start := time.Now()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("soak done in %s: reliability %.4f, faults %v, recovered %d, drops %d/%d",
		time.Since(start).Round(time.Millisecond), rep.Reliability, rep.FaultCounts,
		rep.Final.Recovered, rep.Final.PartitionDrops, rep.Final.LossDrops)
	if !rep.MetSLO {
		t.Errorf("reliability %.4f below SLO %.2f", rep.Reliability, cfg.SLO)
	}
	if rep.AliveEndpoints != cfg.Endpoints {
		t.Errorf("%d endpoints alive at end, want %d (schedule restarts everyone)", rep.AliveEndpoints, cfg.Endpoints)
	}
	for _, kind := range []string{"publish", "crash-wave", "flash-crowd", "partition", "heal", "loss-burst", "loss-restore"} {
		if rep.FaultCounts[kind] == 0 {
			t.Errorf("fault kind %s never applied", kind)
		}
		if _, ok := rep.AfterFault[kind]; !ok {
			t.Errorf("no post-fault stats snapshot for %s", kind)
		}
	}
}

// hierarchyTwinConfig builds the parent re-ignition soak: a two-level
// hierarchy (6 parents on .p, 6 children on .p.c) where the entire
// parent group is killed before the only child-group publication and
// revived after dissemination has quiesced. The restarted parents come
// back with empty protocol state and the event is long gone from the
// wire, so whether they ever deliver it is decided purely by the
// cross-group recovery plane.
func hierarchyTwinConfig(cross bool) Config {
	return Config{
		Endpoints:     12,
		Topics:        []string{".p", ".p.c"},
		Hierarchy:     true,
		Seed:          17,
		Tick:          10 * time.Millisecond,
		Step:          80 * time.Millisecond,
		Settle:        2 * time.Second,
		Recovery:      true,
		CrossRecovery: cross,
		Schedule: []scenario.Event{
			{Round: 0, Kind: scenario.CrashWave, Count: 64, Topic: ".p"},
			{Round: 1, Kind: scenario.Publish},
			{Round: 4, Kind: scenario.FlashCrowd, Topic: ".p"},
			{Round: 8, Kind: scenario.Publish},
		},
		SLO: 0.99,
	}
}

// TestChaosHierarchyTwin runs the parent re-ignition soak twice —
// cross-group recovery on and off — and pins the asymmetry: with it the
// revived parent group obtains the child event it never saw and the run
// meets the SLO; without it the parents stay structurally starved (they
// hold zero copies and intra-group digests exchange nothing), so the
// same schedule misses.
func TestChaosHierarchyTwin(t *testing.T) {
	withCross, err := Run(hierarchyTwinConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	without, err := Run(hierarchyTwinConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cross on:  reliability %.4f per-topic %v recovered %d",
		withCross.Reliability, withCross.PerTopic, withCross.Final.Recovered)
	t.Logf("cross off: reliability %.4f per-topic %v recovered %d missing %d",
		without.Reliability, without.PerTopic, without.Final.Recovered, len(without.Missing))

	if !withCross.MetSLO {
		t.Errorf("cross-group recovery: reliability %.4f below SLO despite hierarchy links", withCross.Reliability)
	}
	if withCross.PerTopic[".p.c"] < 1 {
		t.Errorf("cross-group recovery: child events reached %.4f of owed endpoints, want 1.0 (parents re-ignited)",
			withCross.PerTopic[".p.c"])
	}
	if withCross.Final.Recovered == 0 {
		t.Error("cross-group run never recovered an event; re-ignition happened some other way?")
	}
	if without.MetSLO {
		t.Error("intra-only run claims to meet the SLO; the dead parent group should have missed the child event")
	}
	// 6 parents each owed the 1 pre-restart child event: exactly those
	// pairs miss, so the child topic's fraction sits well below 1.
	if without.PerTopic[".p.c"] > 0.8 {
		t.Errorf("intra-only run delivered %.4f of child-topic pairs; parents were expected to stay starved",
			without.PerTopic[".p.c"])
	}
	if len(without.Missing) == 0 {
		t.Error("intra-only run reports no missing pairs")
	}
}

func TestConfigValidate(t *testing.T) {
	base := partitionConfig(true)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"one endpoint", func(c *Config) { c.Endpoints = 1 }},
		{"no topics", func(c *Config) { c.Topics = nil }},
		{"bad topic", func(c *Config) { c.Topics = []string{"nodot"} }},
		{"duplicate topic", func(c *Config) { c.Topics = []string{".a", ".a"} }},
		{"bad slo", func(c *Config) { c.SLO = 1.5 }},
		{"empty schedule", func(c *Config) { c.Schedule = nil }},
		{"bad fault", func(c *Config) { c.Schedule = []scenario.Event{{Kind: scenario.Partition, Cells: 1}} }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if err := cfg.withDefaults().validate(); err == nil {
			t.Errorf("%s: validate accepted invalid config", tc.name)
		}
	}
	if err := base.withDefaults().validate(); err != nil {
		t.Errorf("base config rejected: %v", err)
	}
}
