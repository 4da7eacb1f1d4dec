package baseline

import (
	"errors"
	"math"
	"testing"

	"damulticast/internal/scenario"
	"damulticast/internal/topic"
)

func testConfig() Config {
	return Config{
		Populations: []Population{
			{Topic: topic.Root, Size: 10},
			{Topic: ".t1", Size: 30},
			{Topic: ".t1.t2", Size: 80},
		},
		PublishTopic:  ".t1.t2",
		B:             3,
		C:             5,
		PSucc:         1,
		AliveFraction: 1,
		NumGroups:     8,
		MaxRounds:     200,
		Seed:          1,
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Populations = nil
	if _, err := RunBroadcast(cfg); !errors.Is(err, ErrNoPopulation) {
		t.Errorf("err = %v", err)
	}
	cfg = testConfig()
	cfg.PSucc = 0
	if _, err := RunBroadcast(cfg); !errors.Is(err, ErrBadPSucc) {
		t.Errorf("err = %v", err)
	}
	cfg = testConfig()
	cfg.AliveFraction = 2
	if _, err := RunBroadcast(cfg); !errors.Is(err, ErrBadAlive) {
		t.Errorf("err = %v", err)
	}
	cfg = testConfig()
	cfg.Populations[0].Size = 0
	if _, err := RunBroadcast(cfg); err == nil {
		t.Error("zero population accepted")
	}
	cfg = testConfig()
	cfg.NumGroups = 0
	if _, err := RunHierarchical(cfg); !errors.Is(err, ErrBadGroups) {
		t.Errorf("err = %v", err)
	}
	cfg = testConfig()
	cfg.PublishTopic = ".ghost"
	if _, err := RunBroadcast(cfg); !errors.Is(err, ErrNoPublisher) {
		t.Errorf("err = %v", err)
	}
}

func TestBroadcastReachesEveryoneAndProducesParasites(t *testing.T) {
	// Publish on .t1.t2; root and .t1 subscribers are interested
	// (their topics include .t1.t2)... every node receives, so zero
	// interested processes are missed and NO parasites would require
	// uninterested processes. Add a disjoint branch to see parasites.
	cfg := testConfig()
	cfg.Populations = append(cfg.Populations, Population{Topic: ".other", Size: 40})
	res, err := RunBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Reliability(); got < 0.99 {
		t.Errorf("broadcast reliability = %g", got)
	}
	// All 40 .other processes receive an event they never subscribed
	// to: the parasite count the paper's motivation hinges on.
	if res.Parasites < 35 {
		t.Errorf("parasites = %d, want ~40", res.Parasites)
	}
	if res.Messages == 0 || res.Rounds == 0 {
		t.Errorf("empty run: %+v", res)
	}
	// Memory: one view of (B+1)ln(n) = 4·ln(160) ≈ 21.
	if res.MaxMemory < 15 || res.MaxMemory > 25 {
		t.Errorf("MaxMemory = %d", res.MaxMemory)
	}
}

func TestMulticastNoParasites(t *testing.T) {
	cfg := testConfig()
	cfg.Populations = append(cfg.Populations, Population{Topic: ".other", Size: 40})
	res, err := RunMulticast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Parasites != 0 {
		t.Errorf("multicast produced %d parasites", res.Parasites)
	}
	if got := res.Reliability(); got < 0.99 {
		t.Errorf("multicast reliability = %g", got)
	}
	// Memory: a root subscriber joins group(.t1.t2), group(.t1),
	// group(root) and group(.other): several tables.
	broadcast, err := RunBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxMemory <= broadcast.MaxMemory {
		t.Errorf("multicast memory (%d) not above broadcast (%d)",
			res.MaxMemory, broadcast.MaxMemory)
	}
}

func TestMulticastMessageComplexityScopedToGroup(t *testing.T) {
	// Messages circulate only in group(.t1.t2) = 120 processes, not
	// among the 40 .other ones.
	cfg := testConfig()
	cfg.Populations = append(cfg.Populations, Population{Topic: ".other", Size: 40})
	multicast, err := RunMulticast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	broadcast, err := RunBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if multicast.Messages >= broadcast.Messages {
		t.Errorf("multicast messages (%d) >= broadcast (%d)",
			multicast.Messages, broadcast.Messages)
	}
}

func TestHierarchicalReachesEveryone(t *testing.T) {
	cfg := testConfig()
	cfg.Populations = append(cfg.Populations, Population{Topic: ".other", Size: 40})
	res, err := RunHierarchical(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Reliability(); got < 0.95 {
		t.Errorf("hierarchical reliability = %g", got)
	}
	if res.Parasites < 30 {
		t.Errorf("hierarchical parasites = %d, want ~40", res.Parasites)
	}
	// Memory: ln-size intra view + ln-size inter view, much smaller
	// than broadcast's global-n view when N is small.
	if res.MaxMemory == 0 {
		t.Error("no memory recorded")
	}
}

func TestHierarchicalGroupsClamped(t *testing.T) {
	cfg := testConfig()
	cfg.NumGroups = 10000 // more groups than processes: clamped
	res, err := RunHierarchical(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Reliability(); got < 0.9 {
		t.Errorf("reliability = %g", got)
	}
}

func TestFailuresReduceReliability(t *testing.T) {
	cfg := testConfig()
	cfg.PSucc = 0.85
	cfg.AliveFraction = 0.3
	cfg.Seed = 5
	res, err := RunBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := testConfig()
	full.Seed = 5
	fres, err := RunBroadcast(full)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages >= fres.Messages {
		t.Errorf("failed run sent more: %d >= %d", res.Messages, fres.Messages)
	}
	if res.InterestedTotal >= fres.InterestedTotal {
		t.Errorf("alive interested: %d >= %d", res.InterestedTotal, fres.InterestedTotal)
	}
}

func TestReliabilityZeroDenominator(t *testing.T) {
	var r Result
	if r.Reliability() != 0 {
		t.Error("empty result reliability != 0")
	}
}

func TestBroadcastMessageComplexityOrder(t *testing.T) {
	// Total messages ≈ n·(ln n + c): every process forwards once.
	cfg := testConfig()
	res, err := RunBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := 120.0
	expect := n * (math.Log(n) + cfg.C)
	if got := float64(res.Messages); got < 0.5*expect || got > 1.5*expect {
		t.Errorf("messages = %g, expected ~%g", got, expect)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := testConfig()
	cfg.PSucc = 0.7
	cfg.AliveFraction = 0.8
	a, err := RunBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Messages != b.Messages || a.InterestedDelivered != b.InterestedDelivered {
		t.Error("non-deterministic baseline run")
	}
}

func TestConfigValidateTable(t *testing.T) {
	valid := testConfig()
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr error // nil = any error unacceptable
	}{
		{"valid", func(c *Config) {}, nil},
		{"empty population", func(c *Config) { c.Populations = nil }, ErrNoPopulation},
		{"zero-size group", func(c *Config) { c.Populations[0].Size = 0 }, nil},
		{"negative-size group", func(c *Config) { c.Populations[1].Size = -3 }, nil},
		{"psucc zero", func(c *Config) { c.PSucc = 0 }, ErrBadPSucc},
		{"psucc above one", func(c *Config) { c.PSucc = 1.5 }, ErrBadPSucc},
		{"psucc negative", func(c *Config) { c.PSucc = -0.1 }, ErrBadPSucc},
		{"alive negative", func(c *Config) { c.AliveFraction = -0.01 }, ErrBadAlive},
		{"alive above one", func(c *Config) { c.AliveFraction = 1.01 }, ErrBadAlive},
		{"schedule negative round", func(c *Config) {
			c.Schedule = []scenario.Event{{Round: -1, Kind: scenario.Heal}}
		}, scenario.ErrBadEvent},
		{"schedule unknown kind", func(c *Config) {
			c.Schedule = []scenario.Event{{Round: 1}}
		}, scenario.ErrKind},
		{"schedule crash fraction", func(c *Config) {
			c.Schedule = []scenario.Event{{Round: 1, Kind: scenario.CrashWave, Fraction: 2}}
		}, scenario.ErrBadEvent},
		{"schedule partition one cell", func(c *Config) {
			c.Schedule = []scenario.Event{{Round: 1, Kind: scenario.Partition, Cells: 1}}
		}, scenario.ErrBadEvent},
		{"schedule burst psucc", func(c *Config) {
			c.Schedule = []scenario.Event{{Round: 1, Kind: scenario.LossBurst, PSucc: 0}}
		}, scenario.ErrBadEvent},
		{"schedule stragglers no delay", func(c *Config) {
			c.Schedule = []scenario.Event{{Round: 1, Kind: scenario.Stragglers, Fraction: 0.5}}
		}, scenario.ErrBadEvent},
		{"schedule topic", func(c *Config) {
			c.Schedule = []scenario.Event{{Round: 1, Kind: scenario.CrashWave, Topic: ".t1", Fraction: 0.5}}
		}, scenario.ErrTopic},
		{"schedule count", func(c *Config) {
			c.Schedule = []scenario.Event{{Round: 1, Kind: scenario.CrashWave, Count: 3}}
		}, scenario.ErrBadEvent},
		{"schedule isolate", func(c *Config) {
			c.Schedule = []scenario.Event{{Round: 1, Kind: scenario.Isolate, Topic: ".t1"}}
		}, scenario.ErrKind},
		{"schedule stragglers clear ok", func(c *Config) {
			c.Schedule = []scenario.Event{{Round: 1, Kind: scenario.Stragglers, Fraction: 0}}
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			cfg.Populations = append([]Population(nil), valid.Populations...)
			tc.mutate(&cfg)
			err := cfg.validate()
			switch tc.name {
			case "valid", "schedule stragglers clear ok":
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func TestReliabilityEdgeCases(t *testing.T) {
	// Zero population -> zero denominator handled.
	r := Result{InterestedTotal: 0, InterestedDelivered: 0}
	if got := r.Reliability(); got != 0 {
		t.Errorf("zero-denominator reliability = %g", got)
	}
	r = Result{InterestedTotal: 10, InterestedDelivered: 7}
	if got := r.Reliability(); got != 0.7 {
		t.Errorf("reliability = %g, want 0.7", got)
	}
	// All interested processes dead -> no publisher to start from.
	cfg := testConfig()
	cfg.AliveFraction = 0
	if _, err := RunBroadcast(cfg); !errors.Is(err, ErrNoPublisher) {
		t.Errorf("all-dead err = %v", err)
	}
	// View cap above population: views clamp to the (pop-1) others.
	cfg = testConfig()
	cfg.Populations = []Population{{Topic: ".t1.t2", Size: 3}}
	cfg.B = 50 // (B+1)ln(3) >> 2
	res, err := RunBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxMemory > 2 {
		t.Errorf("MaxMemory = %d, want <= 2 for population 3", res.MaxMemory)
	}
	if res.Reliability() != 1 {
		t.Errorf("tiny lossless population reliability = %g", res.Reliability())
	}
}

// chaosSchedule is a representative multi-fault schedule used by the
// determinism tests.
func chaosSchedule() []scenario.Event {
	return []scenario.Event{
		{Round: 0, Kind: scenario.Stragglers, Fraction: 0.2, Delay: 2},
		{Round: 1, Kind: scenario.Partition, Cells: 2},
		{Round: 2, Kind: scenario.CrashWave, Fraction: 0.15},
		{Round: 3, Kind: scenario.LossBurst, PSucc: 0.5},
		{Round: 5, Kind: scenario.Heal},
		{Round: 6, Kind: scenario.LossRestore},
		{Round: 8, Kind: scenario.FlashCrowd, Fraction: 1},
	}
}

func TestScheduleReplaysIdentically(t *testing.T) {
	cfg := testConfig()
	cfg.PSucc = 0.9
	cfg.MaxRounds = 30
	cfg.Schedule = chaosSchedule()
	run := func() *Result {
		res, err := RunHierarchical(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if *a != *b {
		t.Errorf("schedule replay diverged: %+v vs %+v", a, b)
	}
}

func TestBaselineWorkerCountInvariance(t *testing.T) {
	// The full §VI-E comparison result must not depend on the shard
	// count — the contract the head-to-head figure's byte-identical
	// CSVs rest on. Exercise all three algorithms under a fault
	// schedule that touches every randomness consumer.
	algos := map[string]func(Config) (*Result, error){
		"broadcast":    RunBroadcast,
		"multicast":    RunMulticast,
		"hierarchical": RunHierarchical,
	}
	for name, run := range algos {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			cfg.PSucc = 0.85
			cfg.AliveFraction = 0.9
			cfg.MaxRounds = 30
			cfg.Schedule = chaosSchedule()
			var base *Result
			for _, workers := range []int{1, 2, 8} {
				cfg.Workers = workers
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if base == nil {
					base = res
					continue
				}
				if *res != *base {
					t.Errorf("workers=%d diverged: %+v vs %+v", workers, res, base)
				}
			}
		})
	}
}

func TestScheduleFaultsDegradeAndPartitionConfines(t *testing.T) {
	// A partition in place before the initial fanout and never healed
	// must confine the epidemic to the publisher's cell: reliability
	// strictly below a fault-free run. (Applied any later, the first
	// round's fanout has already infected both cells and each cell
	// saturates on its own.)
	cfg := testConfig()
	cfg.MaxRounds = 40
	clean, err := RunBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Schedule = []scenario.Event{{Round: 0, Kind: scenario.Partition, Cells: 2}}
	cut, err := RunBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Reliability() >= clean.Reliability() {
		t.Errorf("partition did not confine: %g >= %g", cut.Reliability(), clean.Reliability())
	}
	// Crash-all one round in kills the epidemic mid-flight; restarting
	// everyone later brings the full population back into the
	// denominator but nothing re-disseminates, so reliability stays far
	// below the clean run.
	cfg.Schedule = []scenario.Event{
		{Round: 1, Kind: scenario.CrashWave, Fraction: 1},
		{Round: 10, Kind: scenario.FlashCrowd, Fraction: 1},
	}
	wiped, err := RunBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wiped.Reliability() > 0.5*clean.Reliability() {
		t.Errorf("crash-all+restart reliability = %g, want far below clean %g",
			wiped.Reliability(), clean.Reliability())
	}
}
