package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// probeSeconds is how long the fanin_single probe of a fixed-job
// workload's traced run measures at most.
const probeSeconds = 1.5

// runTraced is the -trace 1 run: the workload once untraced and once
// traced, each for three tenths of the run's time, then the ladder.
// trace.overhead_ratio is the traced phase's deliveries_per_s over the
// untraced one's.
//
// A fixed-job workload sends no frames, so the frames the ladder
// replays and the live span metrics (hub.*, transport.*, loadgen.*)
// come from a short traced fanin_single probe; its own spans are one
// sim.publication per publication (per job for the scale kernel).
func runTraced(wl *workloadDef, seed int64, seconds float64, outDir string) (*outcome, error) {
	phase := seconds * 0.3
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	var live *liveResult
	var liveWl *workloadDef
	var tr *tracer
	var spans []traceSpan

	if wl.Kind == kindLive {
		base, err := runLive(wl, seed, phase, nil)
		if err != nil {
			return nil, err
		}
		liveWl = wl
		tr = newLiveTracer(wl)
		if live, err = runLive(wl, seed, phase, tr); err != nil {
			return nil, err
		}
		m["trace.overhead_ratio"] = live.deliveriesPerS / base.deliveriesPerS
		out.attempted, out.failed = live.published+live.failed, live.failed
		out.wrong = append(base.wrong, live.wrong...)
		spans = tr.resolve()
	} else {
		base, err := runJobs(wl, seed, phase, nil)
		if err != nil {
			return nil, err
		}
		jt := newTracer(0, 0)
		jt.t0 = time.Now()
		jt.bind([]string{wl.Name})
		traced, err := runJobs(wl, seed, phase, jt)
		if err != nil {
			return nil, err
		}
		rate := func(jr *jobResult) float64 {
			return fastRate(perJob(jr.reps, func(r *jobRep) float64 { return float64(r.delivered) / r.wall.Seconds() }))
		}
		m["trace.overhead_ratio"] = rate(traced) / rate(base)
		out.attempted = int64(len(traced.reps) * wl.pubs)
		out.failed = out.attempted - int64(traced.total.quiesced)
		out.wrong = append(base.wrong, traced.wrong...)
		spans = jt.resolve()

		liveWl = findWorkload("fanin_single")
		tr = newLiveTracer(liveWl)
		if live, err = runLive(liveWl, seed, min(probeSeconds, phase), tr); err != nil {
			return nil, err
		}
		out.wrong = append(out.wrong, live.wrong...)
	}

	liveLayerMetrics(live, m)
	in := &ladderInput{frames: tr.captured, wl: liveWl, ep: tr.captureEp, addrs: tr.names}
	if err := liveLadder(in, m); err != nil {
		return nil, err
	}
	if err := simLadder(seed, m); err != nil {
		return nil, err
	}
	if err := scaleLadder(seed, m); err != nil {
		return nil, err
	}
	m["proc.peak_rss_mb"] = peakRSSMiB()

	path := filepath.Join(outDir, wl.Name+".trace.json")
	tf := &traceFile{Workload: wl.Name, Seed: seed, Host: host(), Metrics: m, Spans: spans}
	if err := writeTrace(path, tf); err != nil {
		return nil, err
	}
	out.notes = append(out.notes, fmt.Sprintf("%d spans and %d metrics written to %s; ladder replayed %d captured frames",
		len(spans), len(m), path, len(in.frames)))
	return out, nil
}

// newLiveTracer traces a live workload, capturing frames at its last
// hub (a subscriber that never publishes).
func newLiveTracer(wl *workloadDef) *tracer {
	return newTracer(len(publisherHubs(wl)), len(wl.hubs)-1)
}

// publisherHubs maps publisher index to hub index.
func publisherHubs(wl *workloadDef) []int {
	var hubs []int
	for i, hs := range wl.hubs {
		if hs.publishes {
			hubs = append(hubs, i)
		}
	}
	return hubs
}

// liveLayerMetrics fills the per-layer metrics a traced live run
// measures around the hub's public calls.
func liveLayerMetrics(r *liveResult, m map[string]float64) {
	deliveries := float64(r.delivered)
	if deliveries == 0 {
		deliveries = 1
	}
	m["transport.frames_sent"] = float64(r.eventFrames)
	m["transport.bytes_sent"] = float64(r.bytesSent)
	m["transport.control_frames"] = float64(r.controlFrames)
	m["transport.send_errors"] = float64(r.sendErrors)
	m["transport.send_call_ns_p50"] = r.sendCall.quantile(0.5)
	m["transport.send_call_ns_p90"] = r.sendCall.quantile(0.9)
	m["transport.transit_us_p50"] = r.transit.quantile(0.5) / 1e3
	m["transport.transit_us_p90"] = r.transit.quantile(0.9) / 1e3
	m["transport.bytes_per_delivery"] = float64(r.bytesSent) / deliveries

	m["hub.publish_call_us_p50"] = r.pubCall.quantile(0.5) / 1e3
	m["hub.publish_call_us_p90"] = r.pubCall.quantile(0.9) / 1e3
	m["hub.ingest_call_ns_p50"] = r.ingest.quantile(0.5)
	m["hub.ingest_to_deliver_us_p50"] = r.toDeliv.quantile(0.5) / 1e3
	m["hub.ingest_to_deliver_us_p90"] = r.toDeliv.quantile(0.9) / 1e3
	var overflow, malformed, unrouted, dropped int64
	for _, s := range r.stats {
		overflow += s.OverflowFrames
		malformed += s.MalformedFrames
		unrouted += s.UnroutedFrames
		dropped += s.DroppedDeliveries
	}
	m["hub.overflow_frames"] = float64(overflow)
	m["hub.malformed_frames"] = float64(malformed)
	m["hub.unrouted_frames"] = float64(unrouted)
	m["hub.dropped_deliveries"] = float64(dropped)

	m["loadgen.late_us_p50"] = r.late.quantile(0.5) / 1e3
	m["loadgen.late_us_p90"] = r.late.quantile(0.9) / 1e3
	m["loadgen.published"] = float64(r.published)
	m["proc.gc_cycles"] = float64(r.gc1.cycles - r.gc0.cycles)
	m["proc.gc_pause_total_ms"] = float64(r.gc1.pause-r.gc0.pause) / 1e6
	m["proc.goroutines_peak"] = float64(r.goroutinesPeak)
}
