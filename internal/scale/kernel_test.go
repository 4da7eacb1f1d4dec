package scale

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"damulticast/internal/core"
	"damulticast/internal/metrics"
	"damulticast/internal/topic"
)

// testConfig builds a three-level 1:10:100 topology totalling n
// processes, matching the scale figure's shape.
func testConfig(n int, workers int) Config {
	chain, err := topic.Chain(2, "t")
	if err != nil {
		panic(err)
	}
	n0 := n / 111
	if n0 < 2 {
		n0 = 2
	}
	n1 := n * 10 / 111
	if n1 < 4 {
		n1 = 4
	}
	n2 := n - n0 - n1
	if n2 < 4 {
		n2 = 4
	}
	return Config{
		Groups: []GroupSpec{
			{Topic: topic.Root, Size: n0},
			{Topic: chain[0], Size: n1},
			{Topic: chain[1], Size: n2},
		},
		Params:       core.DefaultParams(),
		PSucc:        0.85,
		PublishTopic: chain[1],
		Publications: 2,
		MaxRounds:    200,
		Seed:         42,
		Workers:      workers,
	}
}

func TestConfigValidate(t *testing.T) {
	ok := testConfig(500, 1)
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		want   error
	}{
		{"no groups", func(c *Config) { c.Groups = nil }, ErrNoGroups},
		{"zero size", func(c *Config) { c.Groups[0].Size = 0 }, ErrBadSize},
		{"dup topic", func(c *Config) { c.Groups[1].Topic = c.Groups[0].Topic }, ErrDupTopic},
		{"no publisher", func(c *Config) { c.PublishTopic = "/nowhere" }, ErrNoPublisher},
		{"bad psucc", func(c *Config) { c.PSucc = 0 }, ErrBadPSucc},
		{"psucc above one", func(c *Config) { c.PSucc = 1.5 }, ErrBadPSucc},
	}
	for _, tc := range cases {
		c := testConfig(500, 1)
		tc.mutate(&c)
		if err := c.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("%s: Validate = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestStoreTablesDistinctAndInRange(t *testing.T) {
	cfg := testConfig(1000, 1)
	st, err := NewStore(cfg.Groups, cfg.Params, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for pi := uint32(0); pi < uint32(st.Len()); pi++ {
		gi := st.groupOf(pi)
		g := &st.groups[gi]
		view := st.View(pi)
		seen := map[uint32]bool{}
		for _, v := range view {
			if v == pi {
				t.Fatalf("proc %d: view contains self", pi)
			}
			if v < g.start || v >= g.start+g.size {
				t.Fatalf("proc %d: view entry %d outside group [%d,%d)", pi, v, g.start, g.start+g.size)
			}
			if seen[v] {
				t.Fatalf("proc %d: duplicate view entry %d", pi, v)
			}
			seen[v] = true
		}
		if tab := st.SuperTable(pi); tab != nil {
			sg := &st.groups[g.super]
			seen = map[uint32]bool{}
			for _, v := range tab {
				if v < sg.start || v >= sg.start+sg.size {
					t.Fatalf("proc %d: super entry %d outside supergroup", pi, v)
				}
				if seen[v] {
					t.Fatalf("proc %d: duplicate super entry %d", pi, v)
				}
				seen[v] = true
			}
		}
	}
}

// TestStorePopulateWorkerInvariance: stores built concurrently are
// identical to a serial build, so the store shares nothing mutable
// between builds.
func TestStorePopulateWorkerInvariance(t *testing.T) {
	cfg := testConfig(2000, 1)
	base, err := NewStore(cfg.Groups, cfg.Params, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]*Store, 4)
	errs := make([]error, len(stores))
	var wg sync.WaitGroup
	for i := range stores {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stores[i], errs[i] = NewStore(cfg.Groups, cfg.Params, 11, 1)
		}(i)
	}
	wg.Wait()
	for i, st := range stores {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(base.view, st.view) || !reflect.DeepEqual(base.super, st.super) {
			t.Fatalf("store %d built concurrently differs from the serial build", i)
		}
	}
}

func TestProcName(t *testing.T) {
	cfg := testConfig(500, 1)
	st, err := NewStore(cfg.Groups, cfg.Params, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	g1 := &st.groups[1]
	got := st.ProcName(g1.start + 3)
	want := string(st.GroupTopic(1)) + "#3"
	if string(got) != want {
		t.Fatalf("ProcName = %q, want %q", got, want)
	}
}

// TestWorkerCountInvariance is the kernel's determinism contract at
// the level that runs in parallel: two kernels with one config, run
// concurrently, each equal a sequential run in reliability, every
// metrics row, round count and the self-accounted StateBytes.
func TestWorkerCountInvariance(t *testing.T) {
	cfg := testConfig(3000, 1)
	run := func() (*Result, string, error) {
		k, err := New(cfg)
		if err != nil {
			return nil, "", err
		}
		res, err := k.Run()
		if err != nil {
			return nil, "", err
		}
		return res, k.Registry().CSV(), nil
	}
	base, baseCSV, err := run()
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg   sync.WaitGroup
		res  [2]*Result
		csv  [2]string
		errs [2]error
	)
	for i := range res {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i], csv[i], errs[i] = run()
		}(i)
	}
	wg.Wait()
	for i := range res {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(base, res[i]) {
			t.Fatalf("concurrent run %d differs from the sequential run:\n%+v\nvs\n%+v", i, base, res[i])
		}
		if baseCSV != csv[i] {
			t.Fatalf("concurrent run %d metrics CSV differs from the sequential run", i)
		}
	}
}

func TestRepeatRunDeterminism(t *testing.T) {
	a, err := Run(testConfig(2000, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testConfig(2000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeated runs differ:\n%+v\nvs\n%+v", a, b)
	}
}

// TestLosslessPublishGroupReliability pins the gossip mechanics: with a
// lossless channel and the paper's fanout, the publish group must be
// fully covered well within MaxRounds.
func TestLosslessPublishGroupReliability(t *testing.T) {
	cfg := testConfig(1000, 1)
	cfg.PSucc = 1.0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rel := res.Reliability[cfg.PublishTopic]; rel != 1.0 {
		t.Fatalf("lossless publish-group reliability = %v, want 1.0", rel)
	}
	if res.Rounds == 0 || res.TotalEvents == 0 {
		t.Fatalf("degenerate run: rounds=%d events=%d", res.Rounds, res.TotalEvents)
	}
}

// TestDeliveredExcludesPublisher checks the sim-compatible accounting:
// the delivered counter counts first-time receipts only, so with one
// publication it equals total processes reached minus the publisher.
func TestDeliveredExcludesPublisher(t *testing.T) {
	cfg := testConfig(1000, 1)
	cfg.Publications = 1
	k, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	reached := popcountRange(k.has, 0, uint32(k.store.Len()))
	if got := res.KindTotals[metrics.Delivered.String()]; got != int64(reached-1) {
		t.Fatalf("delivered = %d, want reached-1 = %d", got, reached-1)
	}
}

// TestReliabilityCountsPublisher: reliability derives from the has
// bitset, which includes the publisher — matching sim, where the
// publisher is trivially reached.
func TestReliabilityCountsPublisher(t *testing.T) {
	cfg := testConfig(300, 1)
	cfg.PSucc = 1.0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for tp, rel := range res.Reliability {
		if rel < 0 || rel > 1 {
			t.Fatalf("reliability[%s] = %v out of [0,1]", tp, rel)
		}
	}
	if res.Reliability[cfg.PublishTopic] <= 0 {
		t.Fatal("publish group reliability must be positive (publisher reached)")
	}
}

func TestSinkFlushRound(t *testing.T) {
	cfg := testConfig(400, 1)
	st, err := NewStore(cfg.Groups, cfg.Params, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sink := NewSink(st)
	sink.intra[2] = 12
	sink.inter[2] = 2
	sink.delivered[2] = 9
	sink.dropped[1] = 1

	reg := metrics.NewRegistry()
	sink.FlushRound(reg)

	t2 := st.GroupTopic(2)
	if got := reg.Get(metrics.Key{Kind: metrics.IntraGroup, Topic: t2}); got != 12 {
		t.Fatalf("intra = %d, want 12", got)
	}
	if got := reg.Get(metrics.Key{Kind: metrics.InterGroup, Topic: t2, Dest: st.GroupTopic(int(st.groups[2].super))}); got != 2 {
		t.Fatalf("inter = %d, want 2", got)
	}
	if got := reg.Get(metrics.Key{Kind: metrics.Delivered, Topic: t2}); got != 9 {
		t.Fatalf("delivered = %d, want 9", got)
	}
	if got := reg.Get(metrics.Key{Kind: metrics.Dropped, Topic: st.GroupTopic(1)}); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
	for gi := 0; gi < st.Groups(); gi++ {
		if sink.intra[gi]|sink.inter[gi]|sink.delivered[gi]|sink.dropped[gi] != 0 {
			t.Fatalf("group %d not zeroed after flush", gi)
		}
	}
	// A second round's counts add to the first's.
	sink.intra[2] = 3
	sink.FlushRound(reg)
	if got := reg.Get(metrics.Key{Kind: metrics.IntraGroup, Topic: t2}); got != 15 {
		t.Fatalf("intra after second flush = %d, want 15", got)
	}
	// A flush of zeroed counters must not move the registry.
	before := reg.CSV()
	sink.FlushRound(reg)
	if reg.CSV() != before {
		t.Fatal("flush of zeroed counters changed the registry")
	}
}

func TestPopcountRange(t *testing.T) {
	bs := make([]uint64, 4)
	for _, i := range []uint32{0, 1, 63, 64, 65, 127, 128, 200, 255} {
		bs[i/64] |= 1 << (i % 64)
	}
	cases := []struct {
		from, to uint32
		want     int
	}{
		{0, 256, 9},
		{0, 1, 1},
		{1, 63, 1},
		{63, 65, 2},
		{64, 128, 3},
		{128, 128, 0},
		{129, 200, 0},
		{200, 256, 2},
	}
	for _, tc := range cases {
		if got := popcountRange(bs, tc.from, tc.to); got != tc.want {
			t.Errorf("popcountRange(%d,%d) = %d, want %d", tc.from, tc.to, got, tc.want)
		}
	}
}

func TestStateBytesScalesLinearly(t *testing.T) {
	small, err := New(testConfig(10000, 1))
	if err != nil {
		t.Fatal(err)
	}
	big, err := New(testConfig(100000, 1))
	if err != nil {
		t.Fatal(err)
	}
	perSmall := float64(small.StateBytes()) / 10000
	perBig := float64(big.StateBytes()) / 100000
	if perBig > float64(BudgetBytesPerProcess) {
		t.Fatalf("state bytes per process %v exceeds budget %d", perBig, BudgetBytesPerProcess)
	}
	// Per-process cost grows only with ln(group size): the 10x jump may
	// add a few view slots but nothing near linear growth.
	if perBig > 2*perSmall {
		t.Fatalf("state not near-linear: %v B/proc at 10k vs %v at 100k", perSmall, perBig)
	}
	if math.IsNaN(perBig) || perBig <= 0 {
		t.Fatalf("implausible per-process bytes %v", perBig)
	}
}
