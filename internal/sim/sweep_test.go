package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestSweepWorkerCountInvariance is the orchestrator's determinism
// gate: the same sweep on 1 and 8 workers must produce deep-equal
// figures whose CSVs match the committed goldens — seeds derive from
// the job index, never from scheduling.
func TestSweepWorkerCountInvariance(t *testing.T) {
	want := readFigureGoldens(t)
	for _, name := range []string{"fig8", "churn", "recovery", "ablation"} {
		var base *Figure
		for _, workers := range []int{1, 8} {
			fig, rep, err := GenerateFigure(context.Background(), name, FigureXs(name, goldenPoints),
				FigureOpts{RunsPerPoint: 1, SweepWorkers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if rep.SweepWorkers != workers {
				t.Errorf("%s: report workers = %d, want %d", name, rep.SweepWorkers, workers)
			}
			sum := sha256.Sum256([]byte(fig.CSV()))
			if got := hex.EncodeToString(sum[:]); got != want[name] {
				t.Errorf("%s workers=%d: CSV sha256 = %s, want %s:\n%s", name, workers, got, want[name], fig.CSV())
			}
			if base == nil {
				base = fig
			} else if !reflect.DeepEqual(fig, base) {
				t.Errorf("%s: figure differs between workers=1 and workers=%d", name, workers)
			}
		}
	}
}

// TestSweepLegacyEquivalence pins the serial sweep to the parallel
// orchestrator: fig8 on one sweep worker must equal fig8 on four.
func TestSweepLegacyEquivalence(t *testing.T) {
	xs := []float64{1.0}
	serial := serialFigure(t, "fig8", xs)
	fig, _, err := GenerateFigure(context.Background(), "fig8", xs,
		FigureOpts{RunsPerPoint: 1, SweepWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, fig) {
		t.Errorf("serial fig8 differs from orchestrated sweep:\n%s\nvs\n%s", serial.CSV(), fig.CSV())
	}
}

func TestGenerateFigureReport(t *testing.T) {
	xs := []float64{0.5, 1.0}
	const runs = 2
	fig, rep, err := GenerateFigure(context.Background(), "fig8", xs,
		FigureOpts{RunsPerPoint: runs, SweepWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != len(xs) {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	if rep.Name != "fig8" || rep.RunsPerPoint != runs || rep.BaseSeed != 1 {
		t.Errorf("report header = %+v", rep)
	}
	if len(rep.Runs) != len(xs)*runs {
		t.Fatalf("report runs = %d, want %d", len(rep.Runs), len(xs)*runs)
	}
	seeds := map[int64]bool{}
	for i, rec := range rep.Runs {
		if rec.Point != i/runs || rec.Run != i%runs {
			t.Errorf("run %d misindexed: %+v", i, rec)
		}
		if rec.X != xs[rec.Point] {
			t.Errorf("run %d x = %g, want %g", i, rec.X, xs[rec.Point])
		}
		if rec.Rounds <= 0 {
			t.Errorf("run %d rounds = %d", i, rec.Rounds)
		}
		if rec.Counts["intra"] <= 0 {
			t.Errorf("run %d missing intra count: %v", i, rec.Counts)
		}
		if len(rec.Values) == 0 {
			t.Errorf("run %d has no extracted values", i)
		}
		if seeds[rec.Seed] {
			t.Errorf("duplicate seed %d at run %d", rec.Seed, i)
		}
		seeds[rec.Seed] = true
	}
	if rep.WallNS <= 0 {
		t.Errorf("wall = %d", rep.WallNS)
	}
	if rep.Totals["intra"] <= 0 {
		t.Errorf("totals = %v", rep.Totals)
	}
}

func TestGenerateFigureUnknown(t *testing.T) {
	if _, _, err := GenerateFigure(context.Background(), "fig99", []float64{1}, FigureOpts{}); err == nil {
		t.Error("unknown figure accepted")
	}
	for _, x := range []float64{0.5, 4} {
		if _, _, err := GenerateFigure(context.Background(), "ablation", []float64{x}, FigureOpts{}); err == nil {
			t.Errorf("ablation at x = %v accepted", x)
		}
	}
}

// TestSweepCancellation cancels a sweep mid-flight and checks that it
// aborts with the context error and leaves no goroutines behind.
func TestSweepCancellation(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	// Plenty of points so the sweep cannot finish before the cancel.
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = 1
	}
	_, _, err := GenerateFigure(ctx, "fig8", xs, FigureOpts{RunsPerPoint: 4, SweepWorkers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > base {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines leaked after cancellation: %d, want <= %d", n, base)
	}
}

// benchSweepFig8 generates Fig. 8 at paper scale with the given sweep
// worker count, reporting the runtime's mutex-wait delta per op — near
// zero now that the metrics registry shards its counters.
func benchSweepFig8(b *testing.B, workers int) {
	b.Helper()
	xs := []float64{0.25, 0.5, 0.75, 1.0}
	var mwait int64
	for i := 0; i < b.N; i++ {
		_, rep, err := GenerateFigure(context.Background(), "fig8", xs,
			FigureOpts{RunsPerPoint: 2, SweepWorkers: workers, BaseSeed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		mwait += rep.MutexWaitNS
	}
	b.ReportMetric(float64(mwait)/float64(b.N), "mutex-wait-ns/op")
}

func BenchmarkSweepFig8Serial(b *testing.B)   { benchSweepFig8(b, 1) }
func BenchmarkSweepFig8Parallel(b *testing.B) { benchSweepFig8(b, 8) }

// BenchmarkSweepWorkers charts sweep scaling across pool sizes.
func BenchmarkSweepWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchSweepFig8(b, workers)
		})
	}
}
