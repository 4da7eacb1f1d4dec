package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"damulticast/internal/experiment"
	"damulticast/internal/sim"
)

func TestRunSingleFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size sweep")
	}
	var out strings.Builder
	// Two points, one run: fast smoke of the real figure path.
	if err := run([]string{"-fig", "9", "-runs", "1", "-points", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "# fig9") {
		t.Errorf("missing header: %q", s)
	}
	if !strings.Contains(s, "alive,") {
		t.Errorf("missing CSV header: %q", s)
	}
	if !strings.Contains(s, "T2->T1") {
		t.Errorf("missing link series: %q", s)
	}
}

func TestRunWritesFile(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size sweep")
	}
	path := filepath.Join(t.TempDir(), "fig.csv")
	var out strings.Builder
	if err := run([]string{"-fig", "10", "-runs", "1", "-points", "2", "-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "# fig10") {
		t.Errorf("file content: %q", data)
	}
}

func TestRunScenarioMode(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scenario", "churn", "-n", "300", "-rounds", "12", "-workers", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"scenario churn", "events sent", "delivered", "wall time"} {
		if !strings.Contains(s, want) {
			t.Errorf("scenario summary missing %q:\n%s", want, s)
		}
	}
}

func TestRunScenarioUnknown(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scenario", "bogus"}, &out); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestRunChurnFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size sweep")
	}
	var out strings.Builder
	if err := run([]string{"-fig", "churn", "-runs", "1", "-points", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# churn:") {
		t.Errorf("missing churn figure header:\n%s", out.String())
	}
}

func TestRunScaleFigure(t *testing.T) {
	var out strings.Builder
	// Two grid points (1e3, 3162): fast smoke of the scale-kernel path.
	if err := run([]string{"-fig", "scale", "-runs", "1", "-points", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "# scale:") {
		t.Errorf("missing scale figure header:\n%s", s)
	}
	for _, want := range []string{"state_bytes_per_proc", "events_per_proc", "1000.00"} {
		if !strings.Contains(s, want) {
			t.Errorf("scale CSV missing %q:\n%s", want, s)
		}
	}
}

// TestFigureKeysCoverSimFigures keeps the CLI's figure table in sync
// with the sim registry: every -fig key is distinct, and the table
// names each canonical figure exactly once.
func TestFigureKeysCoverSimFigures(t *testing.T) {
	keys := map[string]bool{}
	names := make([]string, 0, len(figures))
	for _, f := range figures {
		if keys[f.key] {
			t.Errorf("-fig key %q listed twice", f.key)
		}
		keys[f.key] = true
		names = append(names, f.name)
	}
	slices.Sort(names)
	if want := sim.FigureNames(); !slices.Equal(names, want) {
		t.Errorf("figure table names %v, sim figures are %v", names, want)
	}
}

// TestRunSweepWorkersReproducible checks the CLI-level determinism
// contract: -sweepworkers must not change a single output byte, and
// -report must emit a parseable JSON run report.
func TestRunSweepWorkersReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size sweep")
	}
	dir := t.TempDir()
	serialCSV := filepath.Join(dir, "serial.csv")
	parallelCSV := filepath.Join(dir, "parallel.csv")
	reportPath := filepath.Join(dir, "report.json")
	var out strings.Builder
	if err := run([]string{"-fig", "8", "-runs", "2", "-points", "2",
		"-sweepworkers", "1", "-out", serialCSV}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-fig", "8", "-runs", "2", "-points", "2",
		"-sweepworkers", "8", "-out", parallelCSV, "-report", reportPath}, &out); err != nil {
		t.Fatal(err)
	}
	serial, err := os.ReadFile(serialCSV)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := os.ReadFile(parallelCSV)
	if err != nil {
		t.Fatal(err)
	}
	if string(serial) != string(parallel) {
		t.Errorf("-sweepworkers changed the CSV bytes:\n%s\nvs\n%s", serial, parallel)
	}

	rep, err := experiment.ReadReportFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Figures) != 1 || rep.Figures[0].Name != "fig8" {
		t.Fatalf("report figures = %+v", rep.Figures)
	}
	figRep := rep.Figures[0]
	if len(figRep.Runs) != 4 {
		t.Errorf("report runs = %d, want 4", len(figRep.Runs))
	}
	if figRep.Totals["intra"] <= 0 {
		t.Errorf("report totals = %v", figRep.Totals)
	}
}

func TestRunBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "99"}, &out); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := run([]string{"-runs", "0"}, &out); err == nil {
		t.Error("runs=0 accepted")
	}
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Error("bogus flag accepted")
	}
}
