package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// smokeScale swaps the workload table for one that keeps every
// workload's shape but finishes in about half a second, and restores
// the real one when the test ends.
func smokeScale(t *testing.T) {
	t.Helper()
	real := workloads
	small := append([]workloadDef(nil), real...)
	for i := range small {
		w := &small[i]
		switch w.Kind {
		case kindLive:
			w.warmEvents /= 10
		case kindSim:
			w.pubs, w.ladderPubs = 5, 3
		case kindScale:
			w.groups = [3]int{18, 180, 1800}
			w.pubs, w.ladderPubs = 3, 3
		}
	}
	workloads = small
	t.Cleanup(func() { workloads = real })
}

const smokeSeconds = 0.5

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkMetrics asserts that a run produced exactly the listed metrics,
// each finite, well named and carrying the table's unit.
func checkMetrics(t *testing.T, defs []metricDef, got map[string]float64) {
	t.Helper()
	for _, d := range defs {
		v, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			t.Errorf("metric %s = %v, not finite", d.Name, v)
		}
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is malformed", d.Name)
		}
		if unitOf(d.Name) != d.Unit || d.Unit == "" {
			t.Errorf("metric %s: unit %q, table says %q", d.Name, d.Unit, unitOf(d.Name))
		}
	}
	if len(got) != len(defs) {
		t.Errorf("run produced %d metrics, the table lists %d", len(got), len(defs))
	}
}

// settle waits for the goroutine count to come back to base.
func settle(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s left goroutines behind: %d, baseline %d\n%s",
				what, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWorkloadsSmoke runs every workload end to end at smoke scale and
// checks its output, that it reports every end-to-end metric, and that
// it leaves no goroutine and no listening socket.
func TestWorkloadsSmoke(t *testing.T) {
	smokeScale(t)
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.Name, func(t *testing.T) {
			if wl.tcp && testing.Short() {
				t.Skip("TCP workload skipped under -short")
			}
			base := runtime.NumGoroutine()
			out, err := runUntraced(wl, 7, smokeSeconds)
			if err != nil {
				t.Fatal(err)
			}
			settle(t, base, wl.Name)
			if len(out.wrong) > 0 {
				t.Errorf("wrong output: %v", out.wrong)
			}
			if out.attempted < 1 || out.failed != 0 {
				t.Errorf("attempted %d failed %d", out.attempted, out.failed)
			}
			checkMetrics(t, endToEnd, out.metrics)
			for _, d := range endToEnd {
				if out.metrics[d.Name] <= 0 {
					t.Errorf("%s = %v, want > 0", d.Name, out.metrics[d.Name])
				}
			}
			if r := out.metrics["delivered_ratio"]; r < 0.95 || r > 1 {
				t.Errorf("delivered_ratio = %v", r)
			}
		})
	}
}

// TestListenersClosed checks that a torn-down TCP topology refuses
// connections on every address it listened on.
func TestListenersClosed(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP skipped under -short")
	}
	smokeScale(t)
	wl := findWorkload("hier_paced_tcp")
	base := runtime.NumGoroutine()
	res, err := runLive(wl, 3, smokeSeconds, nil)
	if err != nil {
		t.Fatal(err)
	}
	settle(t, base, wl.Name)
	if len(res.addrs) != len(wl.hubs) {
		t.Fatalf("run reports %d addresses for %d hubs", len(res.addrs), len(wl.hubs))
	}
	for _, addr := range res.addrs {
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c.Close()
			t.Errorf("%s still accepts connections after the run", addr)
		}
	}
}

// TestTracedSmoke runs the traced variant of one live and one fixed-job
// workload: every per-layer metric must be there, the trace file must
// parse, its spans must form a forest, and the summary must read it.
func TestTracedSmoke(t *testing.T) {
	smokeScale(t)
	for _, name := range []string{"fanin_batch16", "sim_paper"} {
		wl := findWorkload(name)
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			base := runtime.NumGoroutine()
			out, err := runTraced(wl, 11, 2*smokeSeconds, dir)
			if err != nil {
				t.Fatal(err)
			}
			settle(t, base, name)
			if len(out.wrong) > 0 {
				t.Errorf("wrong output: %v", out.wrong)
			}
			checkMetrics(t, perLayer, out.metrics)
			if r := out.metrics["trace.overhead_ratio"]; r <= 0 {
				t.Errorf("trace.overhead_ratio = %v", r)
			}

			path := filepath.Join(dir, name+".trace.json")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(raw, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) == 0 {
				t.Fatal("trace file has no spans")
			}
			byID := map[int]traceSpan{}
			for _, s := range tf.Spans {
				byID[s.ID] = s
			}
			parented := 0
			for _, s := range tf.Spans {
				if s.Parent == 0 {
					continue
				}
				p, ok := byID[s.Parent]
				if !ok {
					t.Fatalf("span %d names parent %d, which is not in the file", s.ID, s.Parent)
				}
				if p.StartUs > s.StartUs {
					t.Errorf("span %d (%s) starts before its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
				}
				parented++
			}
			if wl.Kind == kindLive && parented == 0 {
				t.Error("no span of a live trace has a parent")
			}
			var sum bytes.Buffer
			if err := traceSummary(&sum, path); err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(sum.Bytes(), []byte("hub.replay")) {
				t.Errorf("summary lacks the ladder subtraction:\n%s", sum.String())
			}
		})
	}
}

// TestManifestMatchesTable fails when BENCHMARK.json and the Go table
// disagree in any field. Regenerate the file with
// `go run ./bench -manifest > BENCHMARK.json`.
func TestManifestMatchesTable(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(want, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("BENCHMARK.json disagrees with the table in bench/table.go; the table says:\n%s", want)
	}
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if seen[m.Name] {
				t.Errorf("metric %s listed twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.record(v * 10)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 1e6
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1%%", q, got, want)
		}
	}
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1 << 20, 1<<31 + 12345} {
		i := histIndex(v)
		if lo, hi := histLow(i), histLow(i+1); float64(v) < lo || float64(v) >= hi {
			t.Errorf("value %d in bucket %d = [%v, %v)", v, i, lo, hi)
		}
	}
}

// TestQuartiles pins quartiles to Python's
// statistics.quantiles(values, n=4), which the acceptance rule uses.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{5, 1, 3, 2, 4})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
}

func TestPayloadCheck(t *testing.T) {
	spec := newPayloadSpec(42)
	buf := make([]byte, payloadBytes)
	k := eventKey{pub: 1, seq: 77}
	spec.fill(buf, 123456789, k)
	due, got, ok := spec.check(buf)
	if !ok || due != 123456789 || got != k {
		t.Fatalf("check = %v %v %v", due, got, ok)
	}
	for _, i := range []int{0, 9, 13, 21, headerBytes, payloadBytes - 1} {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 1
		if _, _, ok := spec.check(bad); ok {
			t.Errorf("flipping byte %d went unnoticed", i)
		}
	}
	if _, _, ok := newPayloadSpec(43).check(buf); ok {
		t.Error("another run's payload passed the check")
	}
}
