package main

import (
	"encoding/json"
	"time"
)

// This file is the single table the benchmark is defined by: metric
// names, units, directions and bounds, the workloads and their
// parameters, and the SLO limits. The program prints from it and
// BENCHMARK.json is generated from it (-manifest); a test fails when
// the two disagree, so later issues can claim gains by these names.

// runSeconds is how long one run measures. The driver passes it back
// as -seconds; the selfcheck and the README use the same value.
const runSeconds = 20

// benchProcs pins GOMAXPROCS: the host this benchmark was calibrated
// on has two cores, and load comes from at most two publisher
// goroutines.
const benchProcs = 2

// payloadBytes is the application payload on every live path.
const payloadBytes = 100

// liveSLO is the latency limit of the three live workloads.
const liveSLO = 10 * time.Millisecond

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; per-layer metrics carry none.
	Bound float64
}

// endToEnd lists what a user of the system sees. Every workload
// reports all eleven. The two ratios sit near 1, so their relative
// bounds read as absolute ones. The five metrics that are times or
// rates carry the largest bound the benchmark contract allows: on the
// shared two-core host this was calibrated on, ten runs of one commit
// spread by 2-8 % in a calm half hour and by 20-35 % in a bad one
// (NOISE.md), and a bound below the host's own spread rejects commits
// for the neighbours' behaviour.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"deliveries_per_s", "1/s", "higher", 0.25},
	{"deliver_p50_us", "us", "lower", 0.25},
	{"deliver_p90_us", "us", "lower", 0.25},
	{"within_slo_ratio", "ratio", "higher", 0.01},
	{"delivered_ratio", "ratio", "higher", 0.01},
	{"cpu_us_per_delivery", "us", "lower", 0.25},
	{"msgs_per_delivery", "count", "lower", 0.02},
	{"allocs_per_delivery", "count", "lower", 0.03},
	{"alloc_bytes_per_delivery", "B", "lower", 0.03},
	{"heap_after_gc_mb", "MiB", "lower", 0.20},
}

// perLayer lists the traced run's metrics, outside-in. They have no
// bound: they say where an end-to-end change came from.
var perLayer = []metricDef{
	{Name: "wire.peek_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "wire.encode_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wire.events_per_frame", Unit: "count", Better: "higher"},
	{Name: "wire.frame_bytes_p50", Unit: "B", Better: "lower"},

	{Name: "transport.frames_sent", Unit: "count", Better: "lower"},
	{Name: "transport.bytes_sent", Unit: "B", Better: "lower"},
	{Name: "transport.control_frames", Unit: "count", Better: "lower"},
	{Name: "transport.send_errors", Unit: "count", Better: "lower"},
	{Name: "transport.send_call_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "transport.send_call_ns_p90", Unit: "ns", Better: "lower"},
	{Name: "transport.transit_us_p50", Unit: "us", Better: "lower"},
	{Name: "transport.transit_us_p90", Unit: "us", Better: "lower"},
	{Name: "transport.bytes_per_delivery", Unit: "B", Better: "lower"},
	{Name: "transport.loopback_ns_per_frame", Unit: "ns", Better: "lower"},

	{Name: "hub.publish_call_us_p50", Unit: "us", Better: "lower"},
	{Name: "hub.publish_call_us_p90", Unit: "us", Better: "lower"},
	{Name: "hub.ingest_call_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "hub.ingest_to_deliver_us_p50", Unit: "us", Better: "lower"},
	{Name: "hub.ingest_to_deliver_us_p90", Unit: "us", Better: "lower"},
	{Name: "hub.replay_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "hub.self_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "hub.overflow_frames", Unit: "count", Better: "lower"},
	{Name: "hub.malformed_frames", Unit: "count", Better: "lower"},
	{Name: "hub.unrouted_frames", Unit: "count", Better: "lower"},
	{Name: "hub.dropped_deliveries", Unit: "count", Better: "lower"},

	{Name: "core.handle_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "core.publish_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "core.sends_per_event", Unit: "count", Better: "lower"},
	{Name: "core.duplicate_ratio", Unit: "ratio", Better: "lower"},

	{Name: "sim.build_s", Unit: "s", Better: "lower"},
	{Name: "sim.run_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "sim.rounds_per_pub", Unit: "count", Better: "lower"},
	{Name: "sim.msgs_intra", Unit: "count", Better: "lower"},
	{Name: "sim.msgs_inter", Unit: "count", Better: "lower"},
	{Name: "sim.msgs_dropped", Unit: "count", Better: "lower"},
	{Name: "sim.reliability_t0", Unit: "ratio", Better: "higher"},
	{Name: "sim.reliability_t1", Unit: "ratio", Better: "higher"},
	{Name: "sim.reliability_t2", Unit: "ratio", Better: "higher"},
	{Name: "sim.workers2_speedup", Unit: "ratio", Better: "higher"},
	{Name: "simnet.step_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "metrics.inc_ns", Unit: "ns", Better: "lower"},

	{Name: "scale.store_build_s", Unit: "s", Better: "lower"},
	{Name: "scale.run_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "scale.rounds_per_pub", Unit: "count", Better: "lower"},
	{Name: "scale.state_bytes_per_proc", Unit: "B", Better: "lower"},
	{Name: "scale.msgs_dropped_ratio", Unit: "ratio", Better: "lower"},
	{Name: "scale.workers2_speedup", Unit: "ratio", Better: "higher"},

	{Name: "loadgen.late_us_p50", Unit: "us", Better: "lower"},
	{Name: "loadgen.late_us_p90", Unit: "us", Better: "lower"},
	{Name: "loadgen.published", Unit: "count", Better: "higher"},
	{Name: "proc.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.goroutines_peak", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
}

type workloadKind int

const (
	kindLive workloadKind = iota
	kindSim
	kindScale
)

// hubSpec places one hub of a live topology. Contacts index into the
// topology's hub list.
type hubSpec struct {
	topic         string
	groupContacts []int
	superTopic    string
	superContacts []int
	publishes     bool
}

type workloadDef struct {
	Name string
	Why  string
	Kind workloadKind

	// Live workloads.
	tcp  bool
	hubs []hubSpec
	// certainUp sets G=5, A=Z=3 so that with the tiny groups here every
	// upward hop fires (pSel and pA both clamp to 1).
	certainUp bool
	// Closed loop: window events outstanding per publisher, batch per
	// publish call. Open loop: rate events/s on an absolute schedule
	// (window is then unused).
	window, batch int
	rate          int
	// warmEvents are published and fully delivered before the first
	// measured publish; they are part of setup_s.
	warmEvents int

	// Fixed jobs (sim, scale): one job builds the topology and
	// publishes pubs events (ladderPubs when the ladder runs it); groups
	// is the chain root→leaf.
	groups     [3]int
	pubs       int
	ladderPubs int
}

var fanInHubs = []hubSpec{
	{topic: ".load", groupContacts: []int{1, 2}, publishes: true},
	{topic: ".load", groupContacts: []int{0, 2}, publishes: true},
	{topic: ".load", groupContacts: []int{0, 1}},
}

var workloads = []workloadDef{
	{
		Name: "fanin_single",
		Why:  "closed loop, one Publish per event over MemTransport: per-frame hub and wire overhead is most of the cost, transport almost none",
		Kind: kindLive, hubs: fanInHubs, window: 128, batch: 1, warmEvents: 20000,
	},
	{
		Name: "fanin_batch16",
		Why:  "same topology, PublishBatch of 16: per-frame cost amortised 16x, so per-event decode, core batch handling and the Events hand-off dominate",
		Kind: kindLive, hubs: fanInHubs, window: 256, batch: 16, warmEvents: 64000,
	},
	{
		Name: "hier_paced_tcp",
		Why:  "open loop at 2000 events/s up a three-level hierarchy on loopback TCP: syscalls, flush timers and supertopic forwarding set latency and CPU",
		Kind: kindLive, tcp: true, certainUp: true, rate: 2000, batch: 1, warmEvents: 400,
		hubs: []hubSpec{
			{topic: ".a"},
			{topic: ".a.b", superTopic: ".a", superContacts: []int{0}},
			{topic: ".a.b.c", groupContacts: []int{3}, superTopic: ".a.b", superContacts: []int{1}, publishes: true},
			{topic: ".a.b.c", groupContacts: []int{2}, superTopic: ".a.b", superContacts: []int{1}},
		},
	},
	{
		Name: "sim_paper",
		Why:  "the paper's 1000/100/10 simulation, psucc 0.85: core.Process, simnet merge and metrics with no codec, transport or hub",
		Kind: kindSim, groups: [3]int{10, 100, 1000}, pubs: 100, ladderPubs: 30,
	},
	{
		Name: "scale_200k",
		Why:  "the bitset scale kernel on a 180000/18000/1800 chain: the second protocol implementation, no core.Process",
		Kind: kindScale, groups: [3]int{1800, 18000, 180000}, pubs: 10, ladderPubs: 10,
	},
}

// population is a fixed job's process count.
func (w *workloadDef) population() int { return w.groups[0] + w.groups[1] + w.groups[2] }

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// manifest renders BENCHMARK.json from the table.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
