// Command damcanalysis prints the §VI-E comparison tables of the paper
// — message complexity, memory complexity and reliability of
// daMulticast versus (a) gossip broadcast, (b) gossip multicast and
// (c) hierarchical gossip broadcast — combining the closed-form
// analysis with measured simulation runs of all four algorithms.
//
// Usage:
//
//	damcanalysis -table msg|mem|rel|all [-alive 1.0] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"

	"damulticast/internal/analysis"
	"damulticast/internal/baseline"
	"damulticast/internal/sim"
	"damulticast/internal/topic"
	"damulticast/internal/xrand"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "damcanalysis:", err)
		os.Exit(1)
	}
}

// paperLevels builds the analysis model of the §VII-A setting.
func paperLevels() []analysis.Level {
	pi := analysis.GossipReliability(5)
	mk := func(s int) analysis.Level {
		return analysis.Level{S: s, C: 5, G: 5, A: 1, Z: 3, PSucc: 0.85, Pi: pi}
	}
	return []analysis.Level{mk(10), mk(100), mk(1000)}
}

// otherSize is a disjoint ".other" population added to every measured
// run. Its members are NOT interested in the published T2 events, so
// any delivery to them is a parasite message — the cost the paper's
// motivation hinges on. In daMulticast they form their own group and
// receive nothing; under the broadcast baselines they receive
// everything.
const otherSize = 200

// totalN is the total population including the disjoint branch.
const totalN = 10 + 100 + 1000 + otherSize

func baselineConfig(alive float64, seed int64) baseline.Config {
	t0, t1, t2 := sim.PaperTopics()
	return baseline.Config{
		Populations: []baseline.Population{
			{Topic: t0, Size: 10},
			{Topic: t1, Size: 100},
			{Topic: t2, Size: 1000},
			{Topic: topic.MustParse(".other"), Size: otherSize},
		},
		PublishTopic:  t2,
		B:             3,
		C:             5,
		PSucc:         0.85,
		AliveFraction: alive,
		NumGroups:     10,
		MaxRounds:     300,
		Seed:          seed,
	}
}

// tally is one algorithm's messages, parasite deliveries and
// reliability, summed and then averaged over the measured runs.
type tally struct{ msgs, parasites, rel float64 }

func (t *tally) add(msgs, parasites int64, rel float64) {
	t.msgs += float64(msgs)
	t.parasites += float64(parasites)
	t.rel += rel
}

// measured holds the tallies of daMulticast (root-group reliability)
// and the three baselines, averaged over several independent runs
// (single runs are noisy: the upward hop involves only ~g expected
// electors).
type measured struct{ da, bc, mc, hc tally }

func measure(alive float64, baseSeed int64, runs int) (*measured, error) {
	t0, _, _ := sim.PaperTopics()
	var m measured
	baselines := []struct {
		t   *tally
		run func(baseline.Config) (*baseline.Result, error)
	}{{&m.bc, baseline.RunBroadcast}, {&m.mc, baseline.RunMulticast}, {&m.hc, baseline.RunHierarchical}}
	for i := 0; i < runs; i++ {
		seed := baseSeed + int64(i)
		// The daMulticast topology gains the same disjoint ".other"
		// group the baselines carry, so the parasite comparison is
		// apples to apples.
		cfg := sim.PaperConfig(alive, seed)
		cfg.Groups = append(cfg.Groups, sim.GroupSpec{
			Topic: topic.MustParse(".other"), Size: otherSize,
		})
		if alive >= 1 {
			cfg.FailureMode = sim.FailNone
		}
		daRes, err := sim.Run(cfg)
		if err != nil {
			return nil, err
		}
		m.da.add(daRes.TotalEvents, daRes.Parasites, daRes.Reliability[t0])
		for _, b := range baselines {
			res, err := b.run(baselineConfig(alive, seed))
			if err != nil {
				return nil, err
			}
			b.t.add(res.Messages, res.Parasites, res.Reliability())
		}
	}
	n := float64(runs)
	for _, t := range []*tally{&m.da, &m.bc, &m.mc, &m.hc} {
		t.msgs /= n
		t.parasites /= n
		t.rel /= n
	}
	return &m, nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("damcanalysis", flag.ContinueOnError)
	table := fs.String("table", "all", `table to print: "msg", "mem", "rel" or "all"`)
	alive := fs.Float64("alive", 1.0, "alive fraction for measured columns")
	seed := fs.Int64("seed", 1, "base simulation seed")
	runs := fs.Int("runs", 5, "independent runs averaged for measured columns")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *table {
	case "msg", "mem", "rel", "all":
	default:
		return fmt.Errorf("unknown table %q", *table)
	}
	if *runs < 1 {
		return fmt.Errorf("-runs must be >= 1")
	}

	// The mem table reads built topologies only; the other tables
	// measure disseminations.
	var m *measured
	if *table != "mem" {
		var err error
		if m, err = measure(*alive, *seed, *runs); err != nil {
			return err
		}
	}
	levels := paperLevels()
	if *table == "msg" || *table == "all" {
		if err := printMsgTable(stdout, levels, m); err != nil {
			return err
		}
	}
	if *table == "mem" || *table == "all" {
		if err := printMemTable(stdout, levels, *alive, *seed, *runs); err != nil {
			return err
		}
	}
	if *table == "rel" || *table == "all" {
		if err := printRelTable(stdout, levels, m); err != nil {
			return err
		}
	}
	return nil
}

func printMsgTable(w io.Writer, levels []analysis.Level, m *measured) error {
	daF, err := analysis.DaMulticastMessages(levels)
	if err != nil {
		return err
	}
	bcF, err := analysis.BroadcastMessages(totalN, 5)
	if err != nil {
		return err
	}
	mcF, err := analysis.MulticastMessages(levels)
	if err != nil {
		return err
	}
	hcF, err := analysis.HierarchicalMessages(10, totalN/10, 5, 5)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Message complexity (events per publication, §VI-E.1) ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\tclosed-form\tmeasured")
	fmt.Fprintf(tw, "daMulticast\t%.0f\t%.0f\n", daF, m.da.msgs)
	fmt.Fprintf(tw, "(a) gossip broadcast\t%.0f\t%.0f\n", bcF, m.bc.msgs)
	fmt.Fprintf(tw, "(b) gossip multicast\t%.0f\t%.0f\n", mcF, m.mc.msgs)
	fmt.Fprintf(tw, "(c) hierarchical broadcast\t%.0f\t%.0f\n", hcF, m.hc.msgs)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "parasite deliveries: da=%.0f bcast=%.0f mcast=%.0f hier=%.0f\n\n",
		m.da.parasites, m.bc.parasites, m.mc.parasites, m.hc.parasites)
	return nil
}

func printMemTable(w io.Writer, levels []analysis.Level, alive float64, baseSeed int64, runs int) error {
	// Measured: build the paper topology without disseminating and
	// take the largest tables a T2 member holds.
	_, _, t2 := sim.PaperTopics()
	var most float64 // summed over runs
	for i := 0; i < runs; i++ {
		r, err := sim.NewRunner(sim.PaperConfig(alive, baseSeed+int64(i)))
		if err != nil {
			return err
		}
		m := 0
		for _, p := range r.Group(t2) {
			m = max(m, p.MemoryComplexity())
		}
		most += float64(m)
	}

	daMem, err := analysis.DaMulticastMemory(1000, 5, 3, false)
	if err != nil {
		return err
	}
	// core sizes the topic table (b+1)·ln S, not the paper's ln S + c,
	// so the measured tables are set beside that sizing's closed form.
	params := sim.PaperConfig(alive, baseSeed).Params
	daBuilt := float64(xrand.ViewSize(1000, params.B) + params.Z)
	daRoot, err := analysis.DaMulticastMemory(10, 5, 3, true)
	if err != nil {
		return err
	}
	bcMem, err := analysis.BroadcastMemory(totalN, 5)
	if err != nil {
		return err
	}
	mcMem, err := analysis.MulticastMemory(levels)
	if err != nil {
		return err
	}
	hcMem, err := analysis.HierarchicalMemory(10, totalN/10, 5, 5)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Memory complexity (membership entries per process, §VI-E.2) ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\tclosed-form\tmeasured (max)\tformula")
	fmt.Fprintf(tw, "daMulticast (T2 member)\t%.1f\t-\tln S + c + z\n", daMem)
	fmt.Fprintf(tw, "daMulticast (T2, as built)\t%.1f\t%.1f\t⌈(b+1)·ln S⌉ + z\n", daBuilt, most/float64(runs))
	fmt.Fprintf(tw, "daMulticast (root member)\t%.1f\t-\tln S + c\n", daRoot)
	fmt.Fprintf(tw, "(a) gossip broadcast\t%.1f\t-\tln n + c\n", bcMem)
	fmt.Fprintf(tw, "(b) gossip multicast\t%.1f\t-\tΣ ln S_i + c_i\n", mcMem)
	fmt.Fprintf(tw, "(c) hierarchical broadcast\t%.1f\t-\tln N + ln m + c1 + c2\n", hcMem)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

func printRelTable(w io.Writer, levels []analysis.Level, m *measured) error {
	daRel, err := analysis.Reliability(levels, 0)
	if err != nil {
		return err
	}
	mcRel, err := analysis.MulticastReliability(levels)
	if err != nil {
		return err
	}
	hcRel, err := analysis.HierarchicalReliability(10, 5, 5)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Reliability (P[all root-group processes receive], §VI-E.3) ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\tclosed-form\tmeasured (alive frac of interested)")
	fmt.Fprintf(tw, "daMulticast\t%.5f\t%.5f\n", daRel, m.da.rel)
	fmt.Fprintf(tw, "(a) gossip broadcast\t%.5f\t%.5f\n", analysis.BroadcastReliability(5), m.bc.rel)
	fmt.Fprintf(tw, "(b) gossip multicast\t%.5f\t%.5f\n", mcRel, m.mc.rel)
	fmt.Fprintf(tw, "(c) hierarchical broadcast\t%.5f\t%.5f\n", hcRel, m.hc.rel)
	if err := tw.Flush(); err != nil {
		return err
	}

	// Tuning ranges (appendix): feasible c windows for equal
	// reliability and the corresponding z bounds.
	pit := levels[len(levels)-1].Pit()
	fmt.Fprintf(w, "\ntuning (average case, pit=%.6f):\n", pit)
	if c1, err := analysis.TuneVsMulticast(5, pit); err == nil {
		fmt.Fprintf(w, "  match (b) at c=5: c1=%.4f", c1)
		if zb, err := analysis.ZBoundVsMulticast(3, 1000, 5, pit); err == nil {
			fmt.Fprintf(w, ", memory win iff z <= %.1f", zb)
		}
		fmt.Fprintln(w)
	} else {
		fmt.Fprintf(w, "  match (b) infeasible at c=5: need c <= %.4f\n",
			-math.Log(-math.Log(pit)))
	}
	if c1, err := analysis.TuneVsBroadcast(5, pit, 3); err == nil {
		fmt.Fprintf(w, "  match (a) at c=5: c1=%.4f\n", c1)
	} else {
		fmt.Fprintf(w, "  match (a) infeasible at c=5 (%v)\n", err)
	}
	if cT, err := analysis.TuneVsHierarchical(5, pit, 3, 10); err == nil {
		fmt.Fprintf(w, "  match (c) at c=5: cT=%.4f\n", cT)
	} else {
		fmt.Fprintf(w, "  match (c) infeasible at c=5 (%v)\n", err)
	}
	fmt.Fprintln(w)
	return nil
}
