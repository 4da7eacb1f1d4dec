package sim

import (
	"fmt"

	"damulticast/internal/analysis"
	"damulticast/internal/core"
	"damulticast/internal/topic"
)

// ablationAlive is the alive fraction (stillborn failures) of every
// run in the "ablation" figure.
const ablationAlive = 0.8

// ablationKnobs are the §V-B/§VI-D tuning knobs of the "ablation"
// figure, each with its setting per rank and the analysis.Level
// quantity printed beside its measurements: the upward-hop success
// "pit" for z, g and a, the gossip reach "pi" = e^{-e^{-c}} for c.
var ablationKnobs = []struct {
	name, theory string
	values       []float64
	set          func(p *core.Params, v float64)
}{
	{"z", "pit", []float64{1, 3, 8}, func(p *core.Params, v float64) { p.Z = int(v) }},
	{"g", "pit", []float64{1, 5, 25}, func(p *core.Params, v float64) { p.G = v }},
	{"a", "pit", []float64{1, 2, 3}, func(p *core.Params, v float64) { p.A = v }},
	{"c", "pi", []float64{0, 2, 5}, func(p *core.Params, v float64) { p.C = v }},
}

// ablationSpec is the knob ablation: x is a setting rank 1..3, and at
// rank i each knob in turn takes its i-th value on the paper's setting
// while the others keep their defaults. Per knob k the row gives the
// value (k), the inter-group messages (k_inter), the per-level
// reliability among alive processes (k_T0..k_T2) and the closed form
// (k_pit or k_pi). The pit treats a failed target like a lost send, so
// its channel success is psucc·alive. All four runs of a point share
// its seed.
func ablationSpec() figureSpec {
	return figureSpec{
		name:   "ablation",
		xlabel: "setting rank",
		ylabel: "inter-group messages / fraction receiving",
		grid:   pinnedGrid([]float64{1, 2, 3}),
		runPoint: func(x float64, seed int64, kernelWorkers int) (pointResult, error) {
			rank := int(x)
			if float64(rank) != x || rank < 1 || rank > len(ablationKnobs[0].values) {
				return pointResult{}, fmt.Errorf("ablation: x = %v is not a setting rank", x)
			}
			t0, t1, t2 := PaperTopics()
			out := pointResult{values: map[string]float64{}, counts: map[string]int64{}}
			for _, k := range ablationKnobs {
				v := k.values[rank-1]
				cfg := PaperConfig(ablationAlive, seed)
				cfg.Workers = kernelWorkers
				k.set(&cfg.Params, v)
				res, err := Run(cfg)
				if err != nil {
					return pointResult{}, err
				}
				p := cfg.Params
				level := analysis.Level{
					S: res.Size[t2], C: p.C, G: p.G, A: p.A, Z: p.Z,
					PSucc: cfg.PSucc * ablationAlive,
					Pi:    analysis.GossipReliability(p.C),
				}
				theory := level.Pi
				if k.theory == "pit" {
					theory = level.Pit()
				}
				out.values[k.name] = v
				out.values[k.name+"_inter"] = float64(res.Inter[[2]topic.Topic{t2, t1}] + res.Inter[[2]topic.Topic{t1, t0}])
				out.values[k.name+"_"+k.theory] = theory
				putGroups(out.values, k.name+"_", res.Reliability)
				for kind, n := range res.KindTotals {
					out.counts[k.name+":"+kind] += n
				}
				out.rounds += res.Rounds
			}
			return out, nil
		},
	}
}
