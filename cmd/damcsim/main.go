// Command damcsim regenerates the paper's simulation figures
// (Figs. 8-11 of "Data-Aware Multicast", DSN 2004) as CSV on stdout,
// and runs large-scale dynamic scenarios on the sharded parallel
// kernel.
//
// Usage:
//
//	damcsim -fig 8 [-runs 5] [-points 10] [-out fig8.csv]
//	damcsim -fig all -runs 3 -sweepworkers 8 -report report.json
//	damcsim -fig churn            # beyond-paper churn-wave sweep
//	damcsim -fig recovery         # anti-entropy recovery on/off vs loss
//	damcsim -fig recoverystore    # bloom vs raw-id digest frame bytes vs store size
//	damcsim -fig recoverydepth    # cross-group root revival vs hierarchy depth
//	damcsim -fig baselines        # da-multicast vs §VI-E baselines under faults
//	damcsim -fig scale            # struct-of-arrays kernel swept to 1e6 processes
//	damcsim -fig ablation         # z/g/a/c knob ablation beside the closed forms
//	damcsim -scenario churn -n 20000 [-intensity 0.3] [-rounds 24] [-workers 0]
//	damcsim -scenario lossburst -recoverperiod 2   # scenarios with recovery on
//
// Each paper figure sweeps the fraction of alive processes over the
// paper's setting (t=3, S={1000,100,10}, b=3, c=5, g=5, a=1, z=3,
// psucc=0.85) and prints one CSV block per figure; -fig all also
// appends the churn sweep (x = fraction surviving a crash wave) and
// the recovery sweep (x = channel success probability). Sweep points fan out across
// -sweepworkers goroutines on the experiment orchestrator; the CSV
// bytes are identical for every worker count (per-run seeds derive
// from the figure/point/run labels, never from scheduling). -report
// writes a machine-readable JSON run report (per-run seeds, rounds,
// per-kind message counts, wall/CPU/mutex-wait time) for CI to archive
// and diff. Scenario mode builds one flat group of -n processes and
// drives a named dynamic schedule (churn, flashcrowd, partition,
// lossburst) through the parallel kernel, printing a summary. Results
// are byte-identical for every -workers value.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"damulticast/internal/experiment"
	"damulticast/internal/sim"
	"damulticast/internal/topic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "damcsim:", err)
		os.Exit(1)
	}
}

// figures lists every -fig value, in "-fig all" order, with the sim
// figure it names; the paper's Figs. 8-11 go by their numbers.
var figures = []struct{ key, name string }{
	{"8", "fig8"}, {"9", "fig9"}, {"10", "fig10"}, {"11", "fig11"},
	{"churn", "churn"}, {"recovery", "recovery"}, {"recoverystore", "recoverystore"},
	{"recoverydepth", "recoverydepth"}, {"baselines", "baselines"}, {"scale", "scale"},
	{"ablation", "ablation"},
}

// figureList renders the -fig values for help and error text.
func figureList() string {
	keys := make([]string, len(figures))
	for i, f := range figures {
		keys[i] = strconv.Quote(f.key)
	}
	return strings.Join(keys, ", ") + ` or "all"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("damcsim", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate: "+figureList())
	runs := fs.Int("runs", 3, "independent runs averaged per point")
	points := fs.Int("points", 10, "x-axis points per figure: alive fractions in (0, 1] for the paper figures; pinned-grid figures (baselines, scale, ablation) derive their grid from -points")
	out := fs.String("out", "", "write CSV to this file instead of stdout")
	sweepWorkers := fs.Int("sweepworkers", 0, "figure-sweep worker pool size; 0 = GOMAXPROCS, 1 = serial (CSV identical for every value)")
	reportPath := fs.String("report", "", "write a JSON run report (config, seeds, per-kind counts, timing) to this file")
	seed := fs.Int64("seed", 1, "base random seed (figures: per-run seeds derive from it; scenarios: the run seed)")
	scenario := fs.String("scenario", "", `run a named scenario instead of figures (one of "churn", "flashcrowd", "partition", "lossburst")`)
	n := fs.Int("n", 20000, "scenario population (processes)")
	intensity := fs.Float64("intensity", 0, "scenario knob in [0,1]; 0 selects the scenario default")
	rounds := fs.Int("rounds", 0, "scenario rounds; 0 selects the default")
	workers := fs.Int("workers", 0, "kernel shard count; 0 = GOMAXPROCS, 1 = sequential")
	recoverPeriod := fs.Int("recoverperiod", 0, "scenario mode: enable anti-entropy recovery with this wave period in rounds (0 = off)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with `go tool pprof`)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 1 || *points < 1 {
		return fmt.Errorf("runs and points must be >= 1")
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "damcsim: cpuprofile close:", cerr)
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *scenario != "" {
		return runScenario(stdout, *scenario, *n, *intensity, *rounds, *seed, *workers, *recoverPeriod)
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "damcsim: close:", cerr)
			}
		}()
		w = f
	}

	// "all" really means all: the paper figures plus every beyond-paper
	// sweep, in table order.
	selected := figures
	if *fig != "all" {
		i := slices.IndexFunc(figures, func(f struct{ key, name string }) bool { return f.key == *fig })
		if i < 0 {
			return fmt.Errorf("unknown figure %q (want %s)", *fig, figureList())
		}
		selected = figures[i : i+1]
	}
	report := &experiment.Report{
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		SweepWorkers: *sweepWorkers,
	}
	opts := sim.FigureOpts{
		RunsPerPoint: *runs,
		SweepWorkers: *sweepWorkers,
		BaseSeed:     *seed,
	}
	for _, sel := range selected {
		// Each figure owns its x-axis grid: most sweep i/points over
		// (0, 1], a pinned-grid figure derives its own from -points.
		xs := sim.FigureXs(sel.name, *points)
		f, figReport, err := sim.GenerateFigure(context.Background(), sel.name, xs, opts)
		if err != nil {
			return fmt.Errorf("figure %s: %w", sel.key, err)
		}
		report.Figures = append(report.Figures, *figReport)
		fmt.Fprintf(w, "# %s: %s vs %s\n", f.Name, f.YLabel, f.XLabel)
		if _, err := io.WriteString(w, f.CSV()); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if *reportPath != "" {
		f, err := os.Create(*reportPath)
		if err != nil {
			return fmt.Errorf("report: %w", err)
		}
		if err := report.WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("report: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("report: %w", err)
		}
	}
	return nil
}

// runScenario builds and drives one named scenario on the sharded
// kernel and prints a human-readable summary.
func runScenario(w io.Writer, name string, n int, intensity float64, rounds int, seed int64, workers, recoverPeriod int) error {
	cfg, sc, err := sim.BuiltinScenario(name, n, intensity, rounds, seed, workers)
	if err != nil {
		return err
	}
	if recoverPeriod > 0 {
		cfg.Params.RecoverPeriod = recoverPeriod
	}
	start := time.Now()
	res, err := sim.RunScenario(cfg, sc)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(w, "scenario %s: n=%d workers=%d rounds=%d seed=%d\n", sc.Name, n, workers, sc.Rounds, seed)
	fmt.Fprintf(w, "  events sent:   %d\n", res.TotalEvents)
	fmt.Fprintf(w, "  parasites:     %d\n", res.Parasites)
	root := topic.Root
	fmt.Fprintf(w, "  alive at end:  %d of %d\n", res.Alive[root], res.Size[root])
	fmt.Fprintf(w, "  delivered:     %.4f of alive (%.4f of all)\n", res.Reliability[root], res.ReliabilityAll[root])
	if r, ok := res.FirstDeliveryRound[root]; ok {
		fmt.Fprintf(w, "  first delivery: round %d\n", r)
	}
	if recoverPeriod > 0 {
		fmt.Fprintf(w, "  recovered:     %d events via anti-entropy (%d recovery msgs)\n",
			res.KindTotals["recovered"], res.KindTotals["recover_msg"])
	}
	fmt.Fprintf(w, "  wall time:     %s\n", elapsed.Round(time.Millisecond))
	return nil
}
