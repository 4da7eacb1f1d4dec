package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// runSelfcheck measures the benchmark's own noise the way its
// acceptance rule does: two sets of runs per workload, every run a
// fresh process of this binary with its own seed, the sets
// interleaved so that drift of the host hits both alike. For every
// end-to-end metric it prints each set's median and quartiles, the
// spread (interquartile range over median) and the gap between the
// sets' medians in the metric's worse direction, and fails when a gap
// exceeds the metric's bound.
func runSelfcheck(stdout, stderr io.Writer, runs int, seconds float64, seed int64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	h := host()
	fmt.Fprintf(stdout, "selfcheck: 2 sets x %d runs x %d workloads, %.0f s each; host=%s nproc=%d %s commit=%s\n",
		runs, len(workloads), seconds, h.Host, h.NProc, h.Go, h.Commit)
	bad := 0
	for _, wl := range workloads {
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for i := 0; i < runs; i++ {
			for s := range sets {
				runSeed := seed + int64(2*i+s)
				vals, err := childRun(self, wl.Name, runSeed, seconds)
				if err != nil {
					fmt.Fprintf(stderr, "bench: selfcheck %s seed %d: %v\n", wl.Name, runSeed, err)
					return 2
				}
				for name, v := range vals {
					sets[s][name] = append(sets[s][name], v)
				}
			}
		}
		fmt.Fprintf(stdout, "\n%s\n%-26s %-5s %38s %38s %8s %8s %7s\n", wl.Name, "metric", "unit",
			"set A  q1 / median / q3", "set B  q1 / median / q3", "spread", "gap", "bound")
		for _, d := range endToEnd {
			a1, a2, a3 := quartiles(sets[0][d.Name])
			b1, b2, b3 := quartiles(sets[1][d.Name])
			spread := math.Max((a3-a1)/a2, (b3-b1)/b2)
			gap := math.Abs(b2-a2) / math.Min(a2, b2)
			verdict := ""
			if gap > d.Bound {
				verdict = "  GAP EXCEEDS BOUND"
				bad++
			} else if spread > d.Bound && d.Name != "setup_s" {
				verdict = "  spread exceeds bound"
				bad++
			}
			fmt.Fprintf(stdout, "%-26s %-5s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g %7.2f%% %7.2f%% %6.1f%%%s\n",
				d.Name, d.Unit, a1, a2, a3, b1, b2, b3, 100*spread, 100*gap, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "\nselfcheck: %d metric(s) outside their bound\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "\nselfcheck: every gap and spread is within its bound")
	return 0
}

// childRun runs one workload in a child process and returns its
// end-to-end metrics from the result line. The child is always waited
// for, and killed if it outlives its deadline.
func childRun(self, workload string, seed int64, seconds float64) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds*float64(time.Second))+90*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", "0")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w: %s", err, bytes.TrimSpace(errOut.Bytes()))
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported wrong output")
	}
	vals := make(map[string]float64, len(res.Metrics))
	for name, v := range res.Metrics {
		vals[name] = v.Value
	}
	return vals, nil
}
