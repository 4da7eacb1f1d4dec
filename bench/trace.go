package main

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded from the benchmark's side of each public call:
//
//	hub.publish     around Subscription.Publish / PublishBatch
//	transport.send  around Transport.Send, inside the tap
//	hub.ingest      around the hub's receive handler (Hub.onRaw)
//	app.deliver     receipt of one event on Events()
//	sim.publication one simulated publication, publish → quiescence
//
// An event's id (as Publish returned it) is its trace id; a frame span
// carries the id of the first event in the frame and how many events
// rode with it. Parents
// are resolved when the file is written: a deliver's parent is the
// ingest of the frame that first brought the event to that hub, an
// ingest's parent is the send with the same destination and frame
// hash, and a send's parent is the publish call it ran inside or, for
// a forward, the ingest that brought the event.
type spanKind uint8

const (
	spanPublish spanKind = iota
	spanSend
	spanIngest
	spanDeliver
	spanSimPub
)

var spanNames = [...]string{"hub.publish", "transport.send", "hub.ingest", "app.deliver", "sim.publication"}

type span struct {
	kind       spanKind
	ep, peer   int
	hash       uint64
	key        eventKey // first event
	n          int      // events carried
	start, end time.Duration
}

// maxSpans bounds the trace file: spans are kept from the start of the
// traced phase until the buffer is full, a contiguous sample in which
// every event's whole tree is present. The per-layer percentiles do
// not depend on it; they come from histograms over the whole phase.
const maxSpans = 60000

// Frame capture for the ladder: the first event frames to reach one
// subscriber, bounded in count and bytes.
const (
	captureFrames = 20000
	captureBytes  = 16 << 20
)

// ingestSlots bounds how far apart an event's ingest and its delivery
// may be (in events of one publisher) for the pair to be timed.
const ingestSlots = 1 << 13

type ingestRing struct {
	slots [ingestSlots]struct {
		seq atomic.Uint64 // seq+1, 0 = empty
		at  atomic.Int64
	}
}

// put records the first frame that carried seq to this hub.
func (r *ingestRing) put(seq uint64, at time.Duration) {
	s := &r.slots[seq&(ingestSlots-1)]
	if s.seq.Load() == seq+1 {
		return
	}
	s.seq.Store(0)
	s.at.Store(int64(at))
	s.seq.Store(seq + 1)
}

func (r *ingestRing) get(seq uint64) (time.Duration, bool) {
	s := &r.slots[seq&(ingestSlots-1)]
	if s.seq.Load() != seq+1 {
		return 0, false
	}
	return time.Duration(s.at.Load()), true
}

type tracer struct {
	t0       time.Time
	hashSeed maphash.Seed
	names    []string       // endpoint index → address
	epOf     map[string]int // address → endpoint index

	transitTab []*transitTable // per destination endpoint
	ingestAt   [][]*ingestRing // [endpoint][publisher]

	full  atomic.Bool
	mu    sync.Mutex
	spans []span
	ids   map[eventKey]string // event ids as Publish returned them

	publishers int
	captureEp  int
	capMu      sync.Mutex
	captured   [][]byte
	capBytes   int
}

// newTracer prepares tracing for a topology with the given number of
// publishers; frames are captured at endpoint captureEp. bind completes
// it once the topology's addresses are known.
func newTracer(publishers, captureEp int) *tracer {
	return &tracer{
		hashSeed:   maphash.MakeSeed(),
		epOf:       map[string]int{},
		ids:        map[eventKey]string{},
		spans:      make([]span, 0, maxSpans),
		captureEp:  captureEp,
		publishers: publishers,
	}
}

func (tr *tracer) bind(addrs []string) {
	tr.names = addrs
	for i, a := range addrs {
		tr.epOf[a] = i
		tr.transitTab = append(tr.transitTab, &transitTable{})
		rings := make([]*ingestRing, tr.publishers)
		for p := range rings {
			rings[p] = &ingestRing{}
		}
		tr.ingestAt = append(tr.ingestAt, rings)
	}
}

// addPublish records a publish span and the ids the hub gave its
// events (a hub's ids have gaps: its bootstrap search draws from the
// same counter), keyed by what the payloads carry.
func (tr *tracer) addPublish(s span, eventIDs []string) {
	if tr.full.Load() {
		return
	}
	tr.mu.Lock()
	for i, id := range eventIDs {
		tr.ids[eventKey{s.key.pub, s.key.seq + uint64(i)}] = id
	}
	tr.mu.Unlock()
	tr.add(s)
}

// idOf returns the id Publish returned for the event with key k, if it
// was published while spans were being kept.
func (tr *tracer) idOf(k eventKey) (string, bool) {
	tr.mu.Lock()
	id, ok := tr.ids[k]
	tr.mu.Unlock()
	return id, ok
}

func (tr *tracer) add(s span) {
	if tr.full.Load() {
		return
	}
	tr.mu.Lock()
	if len(tr.spans) < maxSpans {
		tr.spans = append(tr.spans, s)
	} else {
		tr.full.Store(true)
	}
	tr.mu.Unlock()
}

// noteIngest records, for every event a frame carried, when the frame
// reached the hub's handler, and keeps a copy of the frame if this is
// the capture endpoint.
func (tr *tracer) noteIngest(ep int, frame []byte, keys []eventKey, at time.Duration) {
	for _, k := range keys {
		if int(k.pub) < len(tr.ingestAt[ep]) {
			tr.ingestAt[ep][k.pub].put(k.seq, at)
		}
	}
	if ep != tr.captureEp {
		return
	}
	tr.capMu.Lock()
	if len(tr.captured) < captureFrames && tr.capBytes+len(frame) <= captureBytes {
		tr.captured = append(tr.captured, append([]byte(nil), frame...))
		tr.capBytes += len(frame)
	}
	tr.capMu.Unlock()
}

func (tr *tracer) ingestTime(ep int, k eventKey) (time.Duration, bool) {
	if int(k.pub) >= len(tr.ingestAt[ep]) {
		return 0, false
	}
	return tr.ingestAt[ep][k.pub].get(k.seq)
}

// traceSpan is the file form of a span.
type traceSpan struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 = root
	Name    string  `json:"name"`
	Ep      string  `json:"ep"`
	Trace   string  `json:"trace"`
	Events  int     `json:"events"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
}

type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Host     hostInfo           `json:"host"`
	Metrics  map[string]float64 `json:"metrics"`
	Spans    []traceSpan        `json:"spans"`
}

type frameKey struct {
	ep   int
	hash uint64
}

type epEvent struct {
	ep int
	k  eventKey
}

// resolve turns the recorded spans into the file form, assigning ids
// in start order and parents by the rules above.
func (tr *tracer) resolve() []traceSpan {
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })

	// First ingest per (hub, frame hash) and per (hub, event).
	ingestByFrame := map[frameKey]int{}
	ingestByEvent := map[epEvent]int{}
	for i, s := range spans {
		if s.kind != spanIngest {
			continue
		}
		if _, dup := ingestByFrame[frameKey{s.ep, s.hash}]; !dup {
			ingestByFrame[frameKey{s.ep, s.hash}] = i
		}
		for j := 0; j < s.n; j++ {
			e := epEvent{s.ep, eventKey{s.key.pub, s.key.seq + uint64(j)}}
			if _, dup := ingestByEvent[e]; !dup {
				ingestByEvent[e] = i
			}
		}
	}
	// A send learns what it carried from the ingest it caused.
	for i := range spans {
		s := &spans[i]
		if s.kind != spanSend {
			continue
		}
		if j, ok := ingestByFrame[frameKey{s.peer, s.hash}]; ok {
			s.key, s.n = spans[j].key, spans[j].n
		}
	}
	// Publish spans per hub, in start order; one publisher goroutine
	// per hub, so they do not overlap.
	publishes := map[int][]int{}
	for i, s := range spans {
		if s.kind == spanPublish {
			publishes[s.ep] = append(publishes[s.ep], i)
		}
	}

	parent := make([]int, len(spans)) // index+1, 0 = none
	for i, s := range spans {
		switch s.kind {
		case spanDeliver:
			if j, ok := ingestByEvent[epEvent{s.ep, s.key}]; ok {
				parent[i] = j + 1
			}
		case spanSend:
			if s.n == 0 {
				continue
			}
			// Sent from inside a publish call of this hub that covers
			// the event, or else forwarded after an ingest.
			list := publishes[s.ep]
			j := sort.Search(len(list), func(x int) bool { return spans[list[x]].start > s.start }) - 1
			if j >= 0 {
				ps := spans[list[j]]
				if s.start <= ps.end && ps.key.pub == s.key.pub &&
					s.key.seq >= ps.key.seq && s.key.seq < ps.key.seq+uint64(ps.n) {
					parent[i] = list[j] + 1
				}
			}
			if parent[i] == 0 {
				if j, ok := ingestByEvent[epEvent{s.ep, s.key}]; ok && spans[j].start <= s.start {
					parent[i] = j + 1
				}
			}
		}
	}
	// An ingest's parent is the earliest unclaimed send to this hub
	// with the same hash.
	sendsByFrame := map[frameKey][]int{}
	for i, s := range spans {
		if s.kind == spanSend {
			k := frameKey{s.peer, s.hash}
			sendsByFrame[k] = append(sendsByFrame[k], i)
		}
	}
	for i, s := range spans {
		if s.kind != spanIngest {
			continue
		}
		k := frameKey{s.ep, s.hash}
		if q := sendsByFrame[k]; len(q) > 0 && spans[q[0]].start <= s.start {
			parent[i] = q[0] + 1
			sendsByFrame[k] = q[1:]
		}
	}

	out := make([]traceSpan, len(spans))
	for i, s := range spans {
		out[i] = traceSpan{
			ID:      i + 1,
			Parent:  parent[i],
			Name:    spanNames[s.kind],
			Ep:      tr.names[s.ep],
			Trace:   tr.ids[s.key],
			Events:  s.n,
			StartUs: float64(s.start) / 1e3,
			DurUs:   float64(s.end-s.start) / 1e3,
		}
	}
	return out
}

func writeTrace(path string, tf *traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(tf); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// traceSummary reads a trace file and prints, per layer, how long its
// spans were busy, how long their work waited before them, and their
// self time (busy minus the part covered by child spans), each per
// delivery in the sample, followed by the ladder subtraction.
func traceSummary(w io.Writer, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	byID := make(map[int]*traceSpan, len(tf.Spans))
	children := map[int][]*traceSpan{}
	for i := range tf.Spans {
		s := &tf.Spans[i]
		byID[s.ID] = s
		children[s.Parent] = append(children[s.Parent], s)
	}
	type agg struct {
		n                int
		busy, wait, self float64
	}
	layers := map[string]*agg{}
	deliveries := 0
	for i := range tf.Spans {
		s := &tf.Spans[i]
		a := layers[s.Name]
		if a == nil {
			a = &agg{}
			layers[s.Name] = a
		}
		a.n++
		a.busy += s.DurUs
		a.self += s.DurUs - covered(s, children[s.ID])
		if p := byID[s.Parent]; p != nil {
			// Work waited from the moment its cause was done with it:
			// the end of a send or an ingest, the start of a publish.
			from := p.StartUs + p.DurUs
			if p.Name == spanNames[spanPublish] {
				from = p.StartUs
			}
			if s.StartUs > from {
				a.wait += s.StartUs - from
			}
		}
		if s.Name == spanNames[spanDeliver] {
			deliveries++
		}
	}
	fmt.Fprintf(w, "trace %s: workload %s seed %d, %d spans, %d deliveries in the sample\n",
		path, tf.Workload, tf.Seed, len(tf.Spans), deliveries)
	per := float64(deliveries)
	if per == 0 {
		per = 1
	}
	fmt.Fprintf(w, "%-16s %8s %14s %14s %14s   (us per delivery)\n", "layer", "spans", "busy", "waited", "self")
	names := make([]string, 0, len(layers))
	for name := range layers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := layers[name]
		fmt.Fprintf(w, "%-16s %8d %14.3f %14.3f %14.3f\n", name, a.n, a.busy/per, a.wait/per, a.self/per)
	}
	m := tf.Metrics
	fmt.Fprintf(w, "\nladder (ns per event, one goroutine, captured frames):\n")
	fmt.Fprintf(w, "  hub.replay %.1f - wire.decode %.1f - core.handle %.1f = hub.self %.1f\n",
		m["hub.replay_ns_per_event"], m["wire.decode_ns_per_event"],
		m["core.handle_ns_per_event"], m["hub.self_ns_per_event"])
	fmt.Fprintf(w, "  transport.loopback %.1f ns/frame, wire.peek %.1f ns/frame, wire.encode %.1f ns/frame\n",
		m["transport.loopback_ns_per_frame"], m["wire.peek_ns_per_frame"], m["wire.encode_ns_per_frame"])
	return nil
}

// covered is the length of the part of s's interval that its children
// cover (children may overlap each other).
func covered(s *traceSpan, kids []*traceSpan) float64 {
	type iv struct{ lo, hi float64 }
	var ivs []iv
	end := s.StartUs + s.DurUs
	for _, c := range kids {
		lo, hi := c.StartUs, c.StartUs+c.DurUs
		if lo < s.StartUs {
			lo = s.StartUs
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, reach float64
	reach = s.StartUs
	for _, v := range ivs {
		if v.hi <= reach {
			continue
		}
		if v.lo < reach {
			v.lo = reach
		}
		total += v.hi - v.lo
		reach = v.hi
	}
	return total
}
