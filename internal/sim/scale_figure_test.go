package sim

import (
	"context"
	"testing"
)

func TestScaleGrid(t *testing.T) {
	xs := FigureXs("scale", 5)
	want := []float64{1_000, 3_162, 10_000, 31_623, 100_000}
	if len(xs) != len(want) {
		t.Fatalf("FigureXs(scale, 5) = %v, want %v", xs, want)
	}
	for i := range want {
		if xs[i] != want[i] {
			t.Fatalf("FigureXs(scale, 5) = %v, want %v", xs, want)
		}
	}
	if full := FigureXs("scale", 10); len(full) != 7 || full[6] != 1_000_000 {
		t.Fatalf("full scale grid = %v, want 7 points ending at 1e6", full)
	}
	if one := FigureXs("scale", 1); len(one) != 1 || one[0] != 1_000 {
		t.Fatalf("FigureXs(scale, 1) = %v, want [1000]", one)
	}
}

func TestScaleGroupsShape(t *testing.T) {
	for _, n := range []int{1_000, 100_000, 1_000_000} {
		gs := scaleGroups(n)
		if len(gs) != 3 {
			t.Fatalf("scaleGroups(%d) has %d groups", n, len(gs))
		}
		total := 0
		for _, g := range gs {
			if g.Size < 2 {
				t.Fatalf("scaleGroups(%d): group %s too small (%d)", n, g.Topic, g.Size)
			}
			total += g.Size
		}
		if total != n {
			t.Fatalf("scaleGroups(%d) sizes sum to %d", n, total)
		}
		if !(gs[0].Size < gs[1].Size && gs[1].Size < gs[2].Size) {
			t.Fatalf("scaleGroups(%d) not 1:10:100 shaped: %+v", n, gs)
		}
	}
}

// TestSweepWorkerCountInvarianceScale extends the figure determinism
// contract to the scale figure: CSV bytes identical for any
// -sweepworkers.
func TestSweepWorkerCountInvarianceScale(t *testing.T) {
	xs := FigureXs("scale", 2)
	opts := FigureOpts{RunsPerPoint: 2, SweepWorkers: 1}
	base, _, err := GenerateFigure(context.Background(), "scale", xs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []FigureOpts{
		{RunsPerPoint: 2, SweepWorkers: 4},
		{RunsPerPoint: 2, SweepWorkers: 8},
	} {
		fig, _, err := GenerateFigure(context.Background(), "scale", xs, o)
		if err != nil {
			t.Fatal(err)
		}
		if fig.CSV() != base.CSV() {
			t.Fatalf("scale CSV differs at opts %+v:\n%s\nvs\n%s", o, fig.CSV(), base.CSV())
		}
	}
}

func TestScaleFigureSeries(t *testing.T) {
	fig, report, err := GenerateFigure(context.Background(), "scale", FigureXs("scale", 2),
		FigureOpts{RunsPerPoint: 1, SweepWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"T0": true, "T1": true, "T2": true,
		"events_per_proc": true, "state_bytes_per_proc": true,
	}
	if len(fig.Series) != len(want) {
		t.Fatalf("series = %v, want keys %v", fig.Series, want)
	}
	for _, s := range fig.Series {
		if !want[s] {
			t.Fatalf("unexpected series %q in %v", s, fig.Series)
		}
	}
	for _, row := range fig.Rows {
		if b := row.Values["state_bytes_per_proc"]; b <= 0 || b > 512 {
			t.Fatalf("state_bytes_per_proc = %v at n=%v, want (0, 512]", b, row.Alive)
		}
		if r := row.Values["T2"]; r <= 0.5 {
			t.Fatalf("T2 reliability %v at n=%v implausibly low", r, row.Alive)
		}
	}
	if report.Name != "scale" || len(report.Runs) != 2 {
		t.Fatalf("report: name=%q runs=%d", report.Name, len(report.Runs))
	}
}
