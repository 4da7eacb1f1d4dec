package sim

import (
	"context"
	"testing"
)

// TestBaselinesWorkerCountInvariance is the determinism contract of the
// head-to-head figure: its CSV bytes must not depend on the sweep
// worker count (which also sets each run's simnet shard count).
func TestBaselinesWorkerCountInvariance(t *testing.T) {
	xs := FigureXs("baselines", 2)
	var want string
	for _, w := range []int{1, 2, 8} {
		fig, _, err := GenerateFigure(context.Background(), "baselines", xs,
			FigureOpts{RunsPerPoint: 1, SweepWorkers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		got := fig.CSV()
		if w == 1 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("figure CSV differs between workers=1 and workers=%d:\n--- workers=1\n%s--- workers=%d\n%s", w, want, w, got)
		}
	}
}

// TestBaselinesDominance is the figure's acceptance gate: at every
// sweep point da-multicast must beat (or tie) all three §VI-E baselines
// on interested-alive reliability while spending fewer event messages
// than gossip broadcast.
func TestBaselinesDominance(t *testing.T) {
	if testing.Short() {
		t.Skip("full dominance sweep skipped in short mode")
	}
	fig, _, err := GenerateFigure(context.Background(), "baselines", FigureXs("baselines", 4),
		FigureOpts{RunsPerPoint: 2, SweepWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range fig.Rows {
		damc := row.Values["damc"]
		for _, algo := range []string{"broadcast", "multicast", "hierarchical"} {
			if base := row.Values[algo]; damc < base {
				t.Errorf("x=%.2f: damc reliability %.4f < %s %.4f", row.Alive, damc, algo, base)
			}
		}
		if dm, bm := row.Values["damc_msgs"], row.Values["broadcast_msgs"]; dm >= bm {
			t.Errorf("x=%.2f: damc %.1f event msgs not below broadcast %.1f", row.Alive, dm, bm)
		}
	}
}
