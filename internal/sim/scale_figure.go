package sim

import (
	"damulticast/internal/core"
	"damulticast/internal/scale"
)

// scaleGridFull is the canonical population sweep for the "scale"
// figure: half-decade log steps from a thousand processes to a million.
// The full simulation stack tops out around 2e4 processes on one
// machine; every point here runs on the struct-of-arrays scale kernel,
// whose per-process state is bounded by scale.BudgetBytesPerProcess.
var scaleGridFull = []float64{1_000, 3_162, 10_000, 31_623, 100_000, 316_228, 1_000_000}

// pinnedGrid returns a figure grid that takes the first points entries
// of full, at least one and at most all of them (so the scale figure's
// CI pass can stop at 1e5 with -points 5 while the default -points 10
// includes the million-process point).
func pinnedGrid(full []float64) func(points int) []float64 {
	return func(points int) []float64 {
		points = max(1, min(points, len(full)))
		return append([]float64(nil), full[:points]...)
	}
}

// scaleGroups scales the paper's 1:10:100 three-level topology to n
// total processes: the T2 leaf group keeps ~100/111 of the population,
// T1 ~10/111, the root ~1/111 — the same shape as PaperConfig at
// n=1110, held constant as n grows.
func scaleGroups(n int) []scale.GroupSpec {
	t0, t1, t2 := PaperTopics()
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
	return []scale.GroupSpec{
		{Topic: t0, Size: n0},
		{Topic: t1, Size: n1},
		{Topic: t2, Size: n2},
	}
}

// scaleSpec is the million-process scaling figure: x is the total
// population, swept over scaleGridFull on the scale kernel (not the full
// simulation stack). Series: per-group delivery reliability under the
// paper's lossy channel, plus two per-process cost curves — events sent
// and self-accounted state bytes — which should stay near-flat (they
// grow only with ln of the group size) while x spans three decades.
func scaleSpec() figureSpec {
	return figureSpec{
		name:   "scale",
		xlabel: "total processes",
		ylabel: "fraction receiving / per-process cost",
		grid:   pinnedGrid(scaleGridFull),
		runPoint: func(x float64, seed int64, _ int) (pointResult, error) {
			n := int(x)
			_, _, t2 := PaperTopics()
			cfg := scale.Config{
				Groups:       scaleGroups(n),
				Params:       core.DefaultParams(),
				PSucc:        0.85,
				PublishTopic: t2,
				Publications: 1,
				MaxRounds:    200,
				Seed:         seed,
			}
			res, err := scale.Run(cfg)
			if err != nil {
				return pointResult{}, err
			}
			values := putGroups(map[string]float64{
				"events_per_proc":      float64(res.TotalEvents) / float64(n),
				"state_bytes_per_proc": res.BytesPerProcess(n),
			}, "", res.Reliability)
			return pointResult{values: values, counts: res.KindTotals, rounds: res.Rounds}, nil
		},
	}
}
