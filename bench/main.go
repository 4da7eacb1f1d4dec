// Command bench is the repository's benchmark: one process per run,
// one workload per invocation, every metric printed by name and unit,
// outputs checked. See README.md in this directory.
//
//	bench -workload fanin_single -seed 1 -seconds 20 -trace 0
//	bench -workload fanin_single -seed 1 -seconds 20 -trace 1
//	bench -selfcheck
//	bench -trace-summary bench/out/fanin_single.trace.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero
// only for wrong output — a payload that fails its checksum, a
// duplicate delivery on one subscription, a delivery outside topic
// inclusion, or a simulation count that differs between repetitions
// of one seed — never for a missed latency limit or a slow host.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type hostInfo struct {
	Host       string `json:"host"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func host() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	h.Host, _ = os.Hostname()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// outcome is what one run reports.
type outcome struct {
	metrics   map[string]float64
	attempted int64 // events published
	failed    int64 // publish calls refused, or publications that hit MaxRounds
	wrong     []string
	notes     []string // sample counts and the like, for the human reader
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (see -list)")
	seed := fs.Int64("seed", 1, "seed the run's inputs derive from")
	seconds := fs.Float64("seconds", runSeconds, "how long the run measures")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a trace file")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for trace files")
	list := fs.Bool("list", false, "list workloads and metrics")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json as the table defines it")
	selfcheck := fs.Bool("selfcheck", false, "run two interleaved sets of runs per workload and compare them")
	runs := fs.Int("runs", 5, "with -selfcheck: runs per set")
	summary := fs.String("trace-summary", "", "print per-layer busy, waiting and self time of a trace file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *list:
		printTable(stdout)
		return 0
	case *printManifest:
		doc, err := manifest()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		stdout.Write(doc)
		return 0
	case *summary != "":
		if err := traceSummary(stdout, *summary); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		return 0
	case *selfcheck:
		return runSelfcheck(stdout, stderr, *runs, *seconds, *seed)
	}

	wl := findWorkload(*workload)
	if wl == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q (see -list)\n", *workload)
		return 2
	}
	if *seconds <= 0 || *seconds > 60 {
		fmt.Fprintln(stderr, "bench: -seconds must be in (0, 60]")
		return 2
	}
	runtime.GOMAXPROCS(benchProcs)

	// A run that outlives one and a half times its plan is stuck: say
	// where, and leave nothing behind.
	planned := time.Duration(*seconds*float64(time.Second)) + 20*time.Second
	watchdog := time.AfterFunc(planned*3/2, func() {
		fmt.Fprintf(stderr, "bench: %s still running after %v; goroutines:\n", wl.Name, planned*3/2)
		_ = pprof.Lookup("goroutine").WriteTo(stderr, 2)
		os.Exit(2)
	})
	defer watchdog.Stop()

	var out *outcome
	var err error
	if *trace != 0 {
		out, err = runTraced(wl, *seed, *seconds, *outDir)
	} else {
		out, err = runUntraced(wl, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	defs := endToEnd
	if *trace != 0 {
		defs = perLayer
	}
	return report(stdout, stderr, wl, *seed, defs, out)
}

// report prints the run for a reader, then the result line.
func report(stdout, stderr io.Writer, wl *workloadDef, seed int64, defs []metricDef, out *outcome) int {
	h := host()
	fmt.Fprintf(stdout, "bench %s seed=%d host=%s nproc=%d gomaxprocs=%d %s commit=%s\n",
		wl.Name, seed, h.Host, h.NProc, h.GOMAXPROCS, h.Go, h.Commit)
	for _, n := range out.notes {
		fmt.Fprintf(stdout, "  # %s\n", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(out.wrong) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok {
			fmt.Fprintf(stderr, "bench: %s did not produce %s\n", wl.Name, d.Name)
			return 2
		}
		fmt.Fprintf(stdout, "  %-34s %16.6g %s\n", d.Name, v, d.Unit)
		result.Metrics[d.Name] = value{v, d.Unit}
	}
	for _, w := range out.wrong {
		fmt.Fprintf(stderr, "bench: wrong output: %s\n", w)
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !result.Correct {
		return 1
	}
	return 0
}

func printTable(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-16s %s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (bound = allowed worsening):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-28s %-6s %-6s %.3f\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Fprintln(w, "per-layer metrics (-trace 1):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-34s %-6s %s\n", m.Name, m.Unit, m.Better)
	}
}

// setupReps is how many times a live run builds and warms its
// topology; setup_s is the fast decile of their times. The first build
// is the one the run measures on, the others follow it so they do not
// disturb it.
const setupReps = 9

func runUntraced(wl *workloadDef, seed int64, seconds float64) (*outcome, error) {
	if wl.Kind != kindLive {
		jr, err := runJobs(wl, seed, seconds, nil)
		if err != nil {
			return nil, err
		}
		return jobOutcome(wl, jr), nil
	}
	res, err := runLive(wl, seed, seconds, nil)
	if err != nil {
		return nil, err
	}
	setups := []float64{res.setup.Seconds()}
	for i := 1; i < setupReps; i++ {
		d, wrong, err := measureSetup(wl, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		res.wrong = append(res.wrong, wrong...)
	}
	out := &outcome{
		attempted: res.published + res.failed,
		failed:    res.failed,
		wrong:     res.wrong,
		metrics: map[string]float64{
			"setup_s":                  fastTime(setups),
			"deliveries_per_s":         res.deliveriesPerS,
			"deliver_p50_us":           res.p50us,
			"deliver_p90_us":           res.p90us,
			"within_slo_ratio":         res.withinRatio,
			"delivered_ratio":          res.deliveredRatio,
			"cpu_us_per_delivery":      res.cpuUsPerDelivery,
			"msgs_per_delivery":        res.msgsPerDelivery,
			"allocs_per_delivery":      res.allocsPerDelivery,
			"alloc_bytes_per_delivery": res.allocBytesPerDelivery,
			"heap_after_gc_mb":         res.heapMiB,
		},
	}
	out.notes = append(out.notes,
		fmt.Sprintf("%d events published, %d deliveries, %d latency samples, %d set-ups",
			res.published, res.delivered, res.latencySamples, len(setups)))
	return out, nil
}

// jobOutcome turns a fixed-job run's repetitions into the end-to-end
// metrics: medians over repetitions, percentiles over every
// publication of every repetition.
func jobOutcome(wl *workloadDef, jr *jobResult) *outcome {
	c := jr.total
	over := func(f func(*jobRep) float64) []float64 { return perJob(jr.reps, f) }
	samples := 0
	for _, r := range jr.reps {
		samples += len(r.pubUs)
	}
	pubs := int64(len(jr.reps) * wl.pubs)
	out := &outcome{
		attempted: pubs,
		failed:    pubs - int64(c.quiesced),
		wrong:     jr.wrong,
		metrics: map[string]float64{
			"setup_s": fastTime(over(func(r *jobRep) float64 { return r.build.Seconds() })),
			"deliveries_per_s": fastRate(over(func(r *jobRep) float64 {
				return float64(r.delivered) / r.wall.Seconds()
			})),
			// Percentiles over one job's publications, then the fast
			// decile over jobs.
			"deliver_p50_us":   fastTime(over(func(r *jobRep) float64 { return quantileOf(r.pubUs, 0.5) })),
			"deliver_p90_us":   fastTime(over(func(r *jobRep) float64 { return quantileOf(r.pubUs, 0.9) })),
			"within_slo_ratio": float64(c.withinOwed) / float64(c.owed),
			"delivered_ratio":  float64(c.delivered) / float64(c.owed),
			"cpu_us_per_delivery": fastTime(over(func(r *jobRep) float64 {
				return float64(r.cpu) / 1e3 / float64(r.delivered)
			})),
			"msgs_per_delivery": float64(c.intra+c.inter) / float64(c.delivered),
			// A job allocates the same objects whatever the host does,
			// and now and then the runtime adds a couple of its own: the
			// smallest count over the jobs is the job's.
			"allocs_per_delivery": quantileOf(over(func(r *jobRep) float64 {
				return float64(r.allocs) / float64(r.delivered)
			}), 0),
			"alloc_bytes_per_delivery": quantileOf(over(func(r *jobRep) float64 {
				return float64(r.allocBytes) / float64(r.delivered)
			}), 0),
			"heap_after_gc_mb": jr.heapMiB,
		},
	}
	out.notes = append(out.notes, fmt.Sprintf("%d jobs of %d publications, %d publication times, %d rounds in all",
		len(jr.reps), wl.pubs, samples, c.rounds))
	walls := make([]float64, len(jr.reps))
	for i, r := range jr.reps {
		walls[i] = r.wall.Seconds()
	}
	out.notes = append(out.notes, fmt.Sprintf("job wall min/median/max %.4f/%.4f/%.4f s",
		quantileOf(walls, 0), median(walls), quantileOf(walls, 1)))
	return out
}
