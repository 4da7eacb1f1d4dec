package sim

import (
	"context"
	"reflect"
	"testing"

	"damulticast/internal/scenario"
	"damulticast/internal/topic"
)

// recoveryConfig builds a flat root group of n processes with
// anti-entropy recovery enabled (period 2, nothing ages out during the
// run) and every other periodic task off.
func recoveryConfig(n int, seed int64, enabled bool) Config {
	cfg := flatConfig(n, seed, 1)
	cfg.PSucc = 1
	if enabled {
		cfg.Params.RecoverPeriod = 2
		cfg.Params.RecoverMaxAge = 1000
	}
	return cfg
}

// TestRecoveryHealsPartition: a group is split before the publication,
// so one cell never sees the event in flight; best-effort gossip has
// quiesced by the time the partition heals, and only the anti-entropy
// layer can carry the event across afterwards.
func TestRecoveryHealsPartition(t *testing.T) {
	sc := Scenario{
		Name:   "partition-then-heal",
		Rounds: 30,
		Events: []scenario.Event{
			{Round: 0, Kind: scenario.Partition, Cells: 2},
			{Round: 1, Kind: scenario.Publish},
			{Round: 8, Kind: scenario.Heal},
		},
	}
	const seed = 7
	base, err := RunScenario(recoveryConfig(80, seed, false), sc)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RunScenario(recoveryConfig(80, seed, true), sc)
	if err != nil {
		t.Fatal(err)
	}
	root := topic.Root
	if base.ReliabilityAll[root] >= 1 {
		t.Fatalf("best-effort run delivered %.3f across a partition: the miss this test needs never happened",
			base.ReliabilityAll[root])
	}
	if rec.ReliabilityAll[root] < 1 {
		t.Errorf("recovery run delivered %.3f, want 1.0 after heal (base %.3f)",
			rec.ReliabilityAll[root], base.ReliabilityAll[root])
	}
	if rec.KindTotals["recovered"] == 0 {
		t.Error("no deliveries attributed to recovery")
	}
	if rec.KindTotals["recover_msg"] == 0 {
		t.Error("no recovery wire traffic counted")
	}
}

// TestRecoveryHealsLossBurst: the publication happens inside a deep
// correlated loss burst (SetLinkDown's probabilistic sibling), so the
// epidemic dies subcritically; after the channel recovers, only
// anti-entropy retransmission completes the delivery.
func TestRecoveryHealsLossBurst(t *testing.T) {
	sc := Scenario{
		Name:   "loss-burst",
		Rounds: 30,
		Events: []scenario.Event{
			{Round: 0, Kind: scenario.LossBurst, PSucc: 0.03},
			{Round: 1, Kind: scenario.Publish},
			{Round: 6, Kind: scenario.LossRestore},
		},
	}
	const seed = 11
	base, err := RunScenario(recoveryConfig(100, seed, false), sc)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RunScenario(recoveryConfig(100, seed, true), sc)
	if err != nil {
		t.Fatal(err)
	}
	root := topic.Root
	if base.ReliabilityAll[root] >= 1 {
		t.Fatalf("best-effort run survived the burst with %.3f: pick a deeper burst or another seed",
			base.ReliabilityAll[root])
	}
	if rec.ReliabilityAll[root] < 1 {
		t.Errorf("recovery run delivered %.3f, want 1.0 after the burst (base %.3f)",
			rec.ReliabilityAll[root], base.ReliabilityAll[root])
	}
}

// TestRecoveryWorkerCountInvariance: a recovery-enabled scenario is
// part of the kernel determinism contract — identical Results for any
// shard count, because all recovery randomness draws from per-process
// streams.
func TestRecoveryWorkerCountInvariance(t *testing.T) {
	sc := Scenario{
		Name:   "invariance",
		Rounds: 16,
		Events: []scenario.Event{
			{Round: 0, Kind: scenario.LossBurst, PSucc: 0.3},
			{Round: 1, Kind: scenario.Publish},
			{Round: 5, Kind: scenario.LossRestore},
			{Round: 6, Kind: scenario.Publish},
		},
	}
	var base *Result
	for _, workers := range []int{1, 2, 8} {
		cfg := recoveryConfig(120, 3, true)
		cfg.Workers = workers
		res, err := RunScenario(cfg, sc)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(res, base) {
			t.Errorf("workers=%d: recovery scenario result differs from workers=1", workers)
		}
	}
}

// TestRecoveryStoreBoundedInSim: under many publications with a tiny
// store cap, no process's store ever exceeds the bound (checked after
// the run; the core-level test checks it mid-flight).
func TestRecoveryStoreBoundedInSim(t *testing.T) {
	cfg := recoveryConfig(40, 5, true)
	cfg.Params.RecoverStoreCap = 4
	sc := Scenario{Name: "flood", Rounds: 24}
	for r := 0; r < 12; r++ {
		sc.Events = append(sc.Events, scenario.Event{Round: r, Kind: scenario.Publish})
	}
	runner, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range runner.Group(topic.Root) {
		if n := p.EventStoreLen(); n > 4 {
			t.Fatalf("process %s holds %d stored events > cap 4", p.ID(), n)
		}
	}
	if res.KindTotals["recover_gc"] == 0 {
		t.Error("flood never evicted a store entry")
	}
}

// TestRecoveryFigureDominatesBaseline is the figure-level acceptance
// gate: at every loss point of the "recovery" sweep the
// recovery-enabled delivery ratio is at least the best-effort
// baseline's, cross-group recovery dominates intra-only on the
// isolated-root pair (with intra provably stuck at zero), and the
// lossless edge delivers everything recovery can reach.
func TestRecoveryFigureDominatesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper-topology sweep")
	}
	xs := []float64{0.2, 0.5, 0.8, 1.0}
	fig, _, err := GenerateFigure(context.Background(), "recovery", xs,
		FigureOpts{RunsPerPoint: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"base", "recovery", "root_cross", "root_intra"}
	if !reflect.DeepEqual(fig.Series, want) {
		t.Fatalf("series = %v, want %v", fig.Series, want)
	}
	for _, row := range fig.Rows {
		base, rec := row.Values["base"], row.Values["recovery"]
		if rec < base {
			t.Errorf("psucc=%.2f: recovery %.4f < baseline %.4f", row.Alive, rec, base)
		}
		intra, cross := row.Values["root_intra"], row.Values["root_cross"]
		if cross < intra {
			t.Errorf("psucc=%.2f: root_cross %.4f < root_intra %.4f", row.Alive, cross, intra)
		}
	}
	last := fig.Rows[len(fig.Rows)-1]
	if last.Values["base"] < 1 || last.Values["recovery"] < 1 {
		t.Errorf("lossless point should deliver 1.0/1.0, got %.4f/%.4f",
			last.Values["base"], last.Values["recovery"])
	}
	// The structural guarantee lives at the lossless edge: gossip
	// quiesces long before the heal, so without cross-group digests no
	// root member ever holds a copy to exchange (at lossy points the
	// epidemic can still be sputtering at heal time, and recovery-driven
	// re-dissemination inside T1 leaks upward through normal gossip).
	if intra := last.Values["root_intra"]; intra != 0 {
		t.Errorf("lossless point: root_intra = %.4f, want exactly 0", intra)
	}
	if last.Values["root_cross"] < 0.9 {
		t.Errorf("lossless point: cross-group recovery revived %.4f of the root, want >= 0.9",
			last.Values["root_cross"])
	}
}

// TestRecoveryStoreFigure is the tentpole's scaling gate: at the 100k
// head of the "recoverystore" sweep the encoded bloom digest frame
// fits the transport's 1 MiB MaxFrame with room to spare, while the
// retired raw-id digest provably cannot — the structural reason the
// v3 codec had to cap digests at 4096 ids and v4 does not.
func TestRecoveryStoreFigure(t *testing.T) {
	xs := FigureXs("recoverystore", 3)
	if got := xs[len(xs)-1]; got != 100000 {
		t.Fatalf("grid head = %g, want 100000", got)
	}
	fig, _, err := GenerateFigure(context.Background(), "recoverystore", xs,
		FigureOpts{RunsPerPoint: 1, SweepWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"bloom_frame", "max_frame", "rawid_frame"}
	if !reflect.DeepEqual(fig.Series, want) {
		t.Fatalf("series = %v, want %v", fig.Series, want)
	}
	for _, row := range fig.Rows {
		bloom, raw := row.Values["bloom_frame"], row.Values["rawid_frame"]
		if bloom >= raw {
			t.Errorf("n=%.0f: bloom frame %.0f B >= raw-id frame %.0f B", row.Alive, bloom, raw)
		}
		if mf := row.Values["max_frame"]; mf != 1<<20 {
			t.Errorf("n=%.0f: max_frame = %.0f, want %d", row.Alive, mf, 1<<20)
		}
	}
	head := fig.Rows[len(fig.Rows)-1]
	if bloom := head.Values["bloom_frame"]; bloom > 1<<20 {
		t.Errorf("100k-event bloom digest frame = %.0f B, does not fit one MaxFrame", bloom)
	}
	if raw := head.Values["rawid_frame"]; raw <= 1<<20 {
		t.Errorf("100k-event raw-id digest frame = %.0f B, unexpectedly fits MaxFrame", raw)
	}
}

// TestRecoveryDepthFigure pins the hierarchy-depth axis: at every
// depth the isolated root group is revived by cross-group recovery
// (lossless network, so revival is structural, not statistical) while
// intra-group-only recovery leaves it at exactly zero.
func TestRecoveryDepthFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-depth hierarchy sweep")
	}
	xs := FigureXs("recoverydepth", 3) // depths 1, 2, 3
	fig, _, err := GenerateFigure(context.Background(), "recoverydepth", xs,
		FigureOpts{RunsPerPoint: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"root_cross", "root_intra"}
	if !reflect.DeepEqual(fig.Series, want) {
		t.Fatalf("series = %v, want %v", fig.Series, want)
	}
	for _, row := range fig.Rows {
		if intra := row.Values["root_intra"]; intra != 0 {
			t.Errorf("depth=%.0f: root_intra = %.4f, want exactly 0", row.Alive, intra)
		}
		if cross := row.Values["root_cross"]; cross < 0.9 {
			t.Errorf("depth=%.0f: root_cross = %.4f, want >= 0.9", row.Alive, cross)
		}
	}
}

// TestRecoveryParamsValidation: enabling recovery with broken knobs is
// rejected by config validation before a runner is built.
func TestRecoveryParamsValidation(t *testing.T) {
	cfg := recoveryConfig(10, 1, true)
	cfg.Params.RecoverFanout = -1
	if _, err := NewRunner(cfg); err == nil {
		t.Error("negative recovery fanout accepted")
	}
}
