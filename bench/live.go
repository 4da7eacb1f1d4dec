package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"damulticast"
	"damulticast/internal/topic"
	"damulticast/internal/wire"
)

// liveTopology is a set of hubs built from a workload's hubSpecs, each
// behind a tap.
type liveTopology struct {
	taps  []*tap
	hubs  []*damulticast.Hub
	subs  []*damulticast.Subscription
	addrs []string
}

// buildLive creates every transport first (a TCP address is only
// known once its listener is bound), then the hubs and their joins.
// On error everything built so far is released.
func buildLive(wl *workloadDef, seed int64, tr *tracer) (_ *liveTopology, err error) {
	t := &liveTopology{}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	var mem *damulticast.MemNetwork
	if !wl.tcp {
		mem = damulticast.NewMemNetwork()
	}
	for i := range wl.hubs {
		var inner damulticast.Transport
		if wl.tcp {
			inner, err = damulticast.NewTCPTransport("127.0.0.1:0")
		} else {
			inner, err = mem.AddTransport(fmt.Sprintf("h%d", i))
		}
		if err != nil {
			return nil, fmt.Errorf("transport %d: %w", i, err)
		}
		t.taps = append(t.taps, &tap{inner: inner, ep: i})
		t.addrs = append(t.addrs, inner.Addr())
	}
	if tr != nil {
		tr.bind(t.addrs)
		for _, tp := range t.taps {
			tp.tr = tr
			tp.dec = wire.NewDecoder()
		}
	}

	params := liveParams(wl)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, hs := range wl.hubs {
		hub, err := damulticast.NewHub(t.taps[i],
			damulticast.WithParams(params), damulticast.WithSeed(seed*131+int64(i)+1))
		if err != nil {
			return nil, fmt.Errorf("hub %d: %w", i, err)
		}
		t.hubs = append(t.hubs, hub)
		sub, err := hub.Join(ctx, hs.topic, joinOptions(hs, t.addrs)...)
		if err != nil {
			return nil, fmt.Errorf("join %d %s: %w", i, hs.topic, err)
		}
		t.subs = append(t.subs, sub)
	}
	return t, nil
}

func liveParams(wl *workloadDef) damulticast.Params {
	params := damulticast.DefaultParams()
	if wl.certainUp {
		params.G, params.A, params.Z = 5, 3, 3
	}
	return params
}

func pickAddrs(addrs []string, idx []int) []string {
	out := make([]string, len(idx))
	for i, j := range idx {
		out[i] = addrs[j]
	}
	return out
}

// joinOptions places a subscription per its hubSpec. Block keeps the
// delivered count honest: a receiver that falls behind slows the hub
// instead of losing events.
func joinOptions(hs hubSpec, addrs []string) []damulticast.JoinOption {
	opts := []damulticast.JoinOption{
		damulticast.WithOverflow(damulticast.Block),
		damulticast.WithEventBuffer(1024),
	}
	if len(hs.groupContacts) > 0 {
		opts = append(opts, damulticast.WithGroupContacts(pickAddrs(addrs, hs.groupContacts)...))
	}
	if len(hs.superContacts) > 0 {
		opts = append(opts, damulticast.WithSuperContacts(hs.superTopic, pickAddrs(addrs, hs.superContacts)...))
	}
	return opts
}

// close stops every hub (which closes its transport and its
// subscriptions' Events channels) and closes transports that never got
// a hub.
func (t *liveTopology) close() {
	for _, h := range t.hubs {
		_ = h.Stop()
	}
	for i := len(t.hubs); i < len(t.taps); i++ {
		_ = t.taps[i].Close()
	}
}

// owingHubs lists the hubs, other than the publisher's, whose
// subscription includes the publisher's topic.
func owingHubs(wl *workloadDef, pubHub int) []int {
	var hubs []int
	pt := topic.Topic(wl.hubs[pubHub].topic)
	for i, hs := range wl.hubs {
		if i != pubHub && topic.Topic(hs.topic).Includes(pt) {
			hubs = append(hubs, i)
		}
	}
	return hubs
}

const (
	ringSlots = 1 << 10 // payload buffers per publisher, more than any window
	dupSlots  = 1 << 12 // duplicate-detection ring per (receiver, publisher)
)

// liveRun drives one topology: publishers, one receiver per
// subscription, and the checks on every delivery.
type liveRun struct {
	wl    *workloadDef
	tr    *tracer
	spec  payloadSpec
	epoch time.Time // zero of every stamp in this run

	pubs []*publisher
	recv []*receiver
	wg   sync.WaitGroup // receivers

	// measureStart is ns since epoch of the first measured publish, 0
	// while warming up; window is the length of one sampling window.
	measureStart atomic.Int64
	window       time.Duration

	wrongMu sync.Mutex
	wrong   []string // wrong-output findings, first few kept
}

type publisher struct {
	run   *liveRun
	idx   int
	hub   int
	owing []int // hubs whose subscription is owed this publisher's events
	sub   *damulticast.Subscription

	// Closed loop only. acked[ep] is one past the highest sequence
	// number receiver ep has delivered (0 for receivers that are owed
	// nothing); an event is outstanding until every owed receiver has
	// passed it, so a lost delivery shrinks no window. wake is poked on
	// every delivery.
	acked []paddedCounter
	wake  chan struct{}
	bufs  [][]byte
	batch [][]byte
	seq   uint64

	published atomic.Int64
	failed    atomic.Int64
	late      hist // publish-call start minus due
	pubCall   hist // traced only
}

type receiver struct {
	run   *liveRun
	ep    int
	topic topic.Topic
	sub   *damulticast.Subscription

	delivered paddedCounter
	lat       []hist   // one per sampling window, first window included
	withinW   []uint64 // per window: deliveries within the limit
	dup       [][]uint64
	toDeliver hist // traced: handler start → receipt
}

func (r *liveRun) flag(format string, args ...any) {
	r.wrongMu.Lock()
	if len(r.wrong) < 8 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
	r.wrongMu.Unlock()
}

func newLiveRun(wl *workloadDef, topo *liveTopology, seed int64, tr *tracer, epoch time.Time, windows int, window time.Duration) *liveRun {
	r := &liveRun{wl: wl, tr: tr, spec: newPayloadSpec(seed), epoch: epoch, window: window}
	for i, hs := range wl.hubs {
		if !hs.publishes {
			continue
		}
		p := &publisher{run: r, idx: len(r.pubs), hub: i, owing: owingHubs(wl, i), sub: topo.subs[i]}
		p.bufs = make([][]byte, ringSlots)
		backing := make([]byte, ringSlots*payloadBytes)
		for j := range p.bufs {
			p.bufs[j] = backing[j*payloadBytes : (j+1)*payloadBytes : (j+1)*payloadBytes]
		}
		p.batch = make([][]byte, wl.batch)
		if wl.rate == 0 {
			p.acked = make([]paddedCounter, len(wl.hubs))
			p.wake = make(chan struct{}, 1)
		}
		r.pubs = append(r.pubs, p)
	}
	for i, hs := range wl.hubs {
		rc := &receiver{run: r, ep: i, topic: topic.Topic(hs.topic), sub: topo.subs[i]}
		rc.lat = make([]hist, windows+4) // slack: the drain outlasts the last boundary
		rc.withinW = make([]uint64, len(rc.lat))
		rc.dup = make([][]uint64, len(r.pubs))
		for j := range rc.dup {
			rc.dup[j] = make([]uint64, dupSlots)
		}
		r.recv = append(r.recv, rc)
	}
	return r
}

func (r *liveRun) startReceivers() {
	for _, rc := range r.recv {
		r.wg.Add(1)
		go func(rc *receiver) {
			defer r.wg.Done()
			rc.loop()
		}(rc)
	}
}

// loop reads Events() until the hub closes it, checking every
// delivery: the payload's bytes, topic inclusion, and that this
// subscription has not seen the event before.
func (rc *receiver) loop() {
	r := rc.run
	for ev := range rc.sub.Events() {
		now := time.Since(r.epoch)
		due, k, ok := r.spec.check(ev.Payload)
		if !ok || int(k.pub) >= len(r.pubs) {
			r.flag("%s: payload of %s fails its checksum", rc.topic, ev.ID)
			continue
		}
		if !rc.topic.Includes(topic.Topic(ev.Topic)) {
			r.flag("%s: delivered %s of topic %s, outside topic inclusion", rc.topic, ev.ID, ev.Topic)
		}
		slot := &rc.dup[k.pub][k.seq&(dupSlots-1)]
		if *slot == k.seq+1 {
			r.flag("%s: %s delivered twice on one subscription", rc.topic, ev.ID)
			continue
		}
		*slot = k.seq + 1

		lat := now - time.Duration(due)
		if ms := r.measureStart.Load(); ms != 0 && int64(now) >= ms {
			if w := int((int64(now) - ms) / int64(r.window)); w < len(rc.lat) {
				rc.lat[w].record(int64(lat))
				if lat <= liveSLO {
					rc.withinW[w]++
				}
			}
		}
		rc.delivered.Add(1)
		if r.tr != nil {
			if at, ok := r.tr.ingestTime(rc.ep, k); ok {
				rc.toDeliver.record(int64(now - at))
			}
			if !r.tr.full.Load() {
				// The payload must belong to the event whose id it
				// arrives under: Publish returned that id for this key.
				if want, ok := r.tr.idOf(k); ok && want != ev.ID {
					r.flag("%s: payload of %s delivered as %s", rc.topic, want, ev.ID)
				}
				r.tr.add(span{kind: spanDeliver, ep: rc.ep, key: k, n: 1, start: now, end: now})
			}
		}
		if p := r.pubs[k.pub]; p.wake != nil {
			if a := &p.acked[rc.ep]; int64(k.seq) >= a.Load() {
				a.Store(int64(k.seq) + 1)
			}
			select {
			case p.wake <- struct{}{}:
			default:
			}
		}
	}
}

// publishOnce publishes the next n events (n = the workload's batch),
// stamped as due at the given instant.
func (p *publisher) publishOnce(ctx context.Context, due time.Duration) {
	r := p.run
	n := len(p.batch)
	first := p.seq
	for i := 0; i < n; i++ {
		slot := p.seq & (ringSlots - 1)
		r.spec.fill(p.bufs[slot], int64(due), eventKey{uint32(p.idx), p.seq})
		p.batch[i] = p.bufs[slot]
		p.seq++
	}
	start := time.Since(r.epoch)
	p.late.record(int64(start - due))
	var err error
	var id string
	var eventIDs []string
	if n == 1 {
		id, err = p.sub.Publish(ctx, p.batch[0])
	} else {
		eventIDs, err = p.sub.PublishBatch(ctx, p.batch)
	}
	if r.tr != nil {
		end := time.Since(r.epoch)
		p.pubCall.record(int64(end - start))
		if n == 1 {
			eventIDs = []string{id}
		}
		r.tr.addPublish(span{kind: spanPublish, ep: p.hub, key: eventKey{uint32(p.idx), first}, n: n, start: start, end: end}, eventIDs)
	}
	if err != nil {
		p.failed.Add(int64(n))
		return
	}
	p.published.Add(int64(n))
}

// outstanding is how many of this publisher's events some owed
// receiver has not passed yet.
func (p *publisher) outstanding() int64 {
	low := int64(p.seq)
	for _, i := range p.owing {
		if a := p.acked[i].Load(); a < low {
			low = a
		}
	}
	return int64(p.seq) - low
}

// loop publishes until stop closes or, when limit > 0, until limit
// events are out. Closed loop: a publish call waits until the window
// has room for its events. Open loop: one publish call per tick of an
// absolute schedule; a late generator publishes at once and the event
// is still timed from when it was due. A warm-up (limit > 0) is not
// paced: its events go out back to back, so that setup_s is the cost
// of building and warming the topology and not the length of a
// schedule.
func (p *publisher) loop(ctx context.Context, limit int64, stop <-chan struct{}) {
	r := p.run
	n := int64(len(p.batch))
	var sent int64
	if p.wake != nil {
		for limit == 0 || sent < limit {
			for p.outstanding()+n > int64(r.wl.window) {
				select {
				case <-p.wake:
				case <-stop:
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
			p.publishOnce(ctx, time.Since(r.epoch))
			sent += n
		}
		return
	}
	var interval time.Duration
	if limit == 0 {
		interval = time.Second / time.Duration(r.wl.rate)
	}
	begin := time.Since(r.epoch)
	timer := time.NewTimer(0) // one timer, reset per tick: the generator allocates nothing per event
	defer timer.Stop()
	for k := int64(0); limit == 0 || sent < limit; k++ {
		due := begin + time.Duration(k)*interval
		if wait := due - time.Since(r.epoch); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-stop:
				return
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		p.publishOnce(ctx, due)
		sent += n
	}
}

func (r *liveRun) totals() (published, failed, owed, delivered int64) {
	for _, p := range r.pubs {
		n := p.published.Load()
		published += n
		owed += n * int64(len(p.owing))
		failed += p.failed.Load()
	}
	for _, rc := range r.recv {
		delivered += rc.delivered.Load()
	}
	return
}

// phase runs every publisher until stop closes (limit 0) or until
// each has published limit events, then waits for the owed deliveries
// to arrive. A delivery that never arrives is lost; that lowers
// delivered_ratio, it does not fail the run.
func (r *liveRun) phase(ctx context.Context, limit int64, stop <-chan struct{}) {
	var wg sync.WaitGroup
	for _, p := range r.pubs {
		wg.Add(1)
		go func(p *publisher) {
			defer wg.Done()
			p.loop(ctx, limit, stop)
		}(p)
	}
	wg.Wait()
	// Drain: done when everything owed has arrived, or when nothing
	// has arrived for a while (what is still missing was lost).
	last, lastAt := int64(-1), time.Now()
	for {
		_, _, owed, delivered := r.totals()
		if delivered >= owed {
			return
		}
		if delivered != last {
			last, lastAt = delivered, time.Now()
		} else if time.Since(lastAt) > drainQuiet {
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// settleBeforeHeap is several times what a hub needs to work off full
// queues (a few thousand frames at about 2 us each).
const settleBeforeHeap = 100 * time.Millisecond

// drainQuiet is how long a phase waits without a single delivery
// before it gives up on the deliveries still owed.
const drainQuiet = 200 * time.Millisecond

// sample is the state of the run at one window boundary.
type sample struct {
	at         time.Duration
	cpu        time.Duration
	delivered  int64
	allocs     uint64
	allocBytes uint64
	goroutines int
}

func (r *liveRun) takeSample(ms []metrics.Sample) sample {
	_, _, _, delivered := r.totals()
	metrics.Read(ms)
	return sample{
		at:         time.Since(r.epoch),
		cpu:        cpuTime(),
		delivered:  delivered,
		allocs:     ms[0].Value.Uint64(),
		allocBytes: ms[1].Value.Uint64(),
		goroutines: runtime.NumGoroutine(),
	}
}

// liveResult is everything one live run measured; endToEnd and
// perLayer pick from it.
type liveResult struct {
	setup time.Duration

	deliveriesPerS, cpuUsPerDelivery         float64
	p50us, p90us                             float64
	latencySamples                           uint64
	withinRatio, deliveredRatio              float64
	msgsPerDelivery                          float64
	allocsPerDelivery, allocBytesPerDelivery float64
	heapMiB                                  float64

	published, failed, delivered int64
	wrong                        []string
	addrs                        []string // the hubs' transport addresses

	eventFrames, controlFrames, bytesSent, sendErrors int64
	stats                                             []damulticast.HubStats
	goroutinesPeak                                    int
	late, pubCall, sendCall, ingest, transit, toDeliv hist
	gc0, gc1                                          gcCounters
}

// windowing splits a measured phase into sampling windows: one second
// each, or a quarter of the phase when it is shorter than four seconds
// (smoke runs).
func windowing(seconds float64) (n int, window time.Duration) {
	if seconds >= 4 {
		return int(seconds), time.Second
	}
	return 4, time.Duration(seconds * float64(time.Second) / 4)
}

// runLive builds the workload's topology, warms it up, measures for
// the given time and tears it down. tr is nil for an untraced run.
func runLive(wl *workloadDef, seed int64, seconds float64, tr *tracer) (*liveResult, error) {
	res := &liveResult{}
	windows, window := windowing(seconds)
	epoch := time.Now()
	if tr != nil {
		tr.t0 = epoch
	}

	topo, err := buildLive(wl, seed, tr)
	if err != nil {
		return nil, err
	}
	res.addrs = topo.addrs
	r := newLiveRun(wl, topo, seed, tr, epoch, windows, window)
	r.startReceivers()
	defer func() {
		topo.close()
		r.wg.Wait()
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	perPub := int64(wl.warmEvents / len(r.pubs))
	r.phase(ctx, perPub, nil)
	res.setup = time.Since(epoch)

	// Counters at the first measured publish.
	pub0, _, owed0, del0 := r.totals()
	var frames0, control0, bytes0 int64
	for _, tp := range topo.taps {
		frames0 += tp.eventFrames.Load()
		control0 += tp.controlFrames.Load()
		bytes0 += tp.bytesSent.Load()
	}
	res.gc0 = readGC()

	ms := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	stop := make(chan struct{})
	done := make(chan struct{})
	start := time.Since(epoch)
	r.measureStart.Store(int64(start))
	go func() {
		defer close(done)
		r.phase(ctx, 0, stop)
	}()
	samples := make([]sample, 0, windows+1)
	samples = append(samples, r.takeSample(ms))
	for k := 1; k <= windows; k++ {
		time.Sleep(start + time.Duration(k)*window - time.Since(epoch))
		samples = append(samples, r.takeSample(ms))
	}
	close(stop)
	<-done
	res.gc1 = readGC()

	// Per-window values; the first window is discarded.
	var rates, cpus, p50s, p90s, withins []float64
	for k := 2; k < len(samples); k++ {
		a, b := samples[k-1], samples[k]
		d := float64(b.delivered - a.delivered)
		if d <= 0 {
			continue
		}
		rates = append(rates, d/(b.at-a.at).Seconds())
		cpus = append(cpus, float64(b.cpu-a.cpu)/1e3/d)
		var h hist
		var within uint64
		for _, rc := range r.recv {
			h.merge(&rc.lat[k-1])
			within += rc.withinW[k-1]
		}
		if h.n > 0 {
			p50s = append(p50s, h.quantile(0.5)/1e3)
			p90s = append(p90s, h.quantile(0.9)/1e3)
			withins = append(withins, float64(within)/float64(h.n))
			res.latencySamples += h.n
		}
	}
	res.deliveriesPerS = fastRate(rates)
	res.cpuUsPerDelivery = fastTime(cpus)
	res.p50us, res.p90us = fastTime(p50s), fastTime(p90s)
	first, last := samples[1], samples[len(samples)-1]
	if d := float64(last.delivered - first.delivered); d > 0 {
		res.allocsPerDelivery = float64(last.allocs-first.allocs) / d
		res.allocBytesPerDelivery = float64(last.allocBytes-first.allocBytes) / d
	}
	for _, s := range samples {
		if s.goroutines > res.goroutinesPeak {
			res.goroutinesPeak = s.goroutines
		}
	}

	// Whole-phase counts, exact because the phase has drained.
	pub1, failed, owed1, del1 := r.totals()
	res.published, res.failed, res.delivered = pub1-pub0, failed, del1-del0
	if owed := float64(owed1 - owed0); owed > 0 {
		res.deliveredRatio = float64(del1-del0) / owed
		// Of what arrived, the median window's share within the limit: a
		// host that stops for a moment spoils one window, not the run.
		// What never arrived missed the limit too.
		res.withinRatio = median(withins) * res.deliveredRatio
	}
	for _, tp := range topo.taps {
		res.eventFrames += tp.eventFrames.Load()
		res.controlFrames += tp.controlFrames.Load()
		res.bytesSent += tp.bytesSent.Load()
		res.sendErrors += tp.sendErrors.Load()
	}
	res.eventFrames -= frames0
	res.controlFrames -= control0
	res.bytesSent -= bytes0
	if res.delivered > 0 {
		res.msgsPerDelivery = float64(res.eventFrames) / float64(res.delivered)
	}
	// Deliveries are done, but duplicate frames may still sit in the
	// hubs' queues; give the loops time to drop them so the heap is
	// measured at rest.
	time.Sleep(settleBeforeHeap)
	res.heapMiB = heapAfterGCMiB()
	for _, h := range topo.hubs {
		res.stats = append(res.stats, h.Stats())
	}

	// Tear down before reading what the goroutines own.
	topo.close()
	r.wg.Wait()
	for _, p := range r.pubs {
		res.late.merge(&p.late)
		res.pubCall.merge(&p.pubCall)
	}
	for _, rc := range r.recv {
		res.toDeliv.merge(&rc.toDeliver)
	}
	for _, tp := range topo.taps {
		// A transport's delivery goroutine may outlive Close by one
		// handler call, so the taps' histograms are read under their locks.
		tp.sendMu.Lock()
		res.sendCall.merge(&tp.sendCall)
		tp.sendMu.Unlock()
		tp.recvMu.Lock()
		res.ingest.merge(&tp.ingest)
		res.transit.merge(&tp.transit)
		tp.recvMu.Unlock()
	}
	res.wrong = r.wrong
	return res, nil
}

// measureSetup builds the topology, warms it up and tears it down,
// returning how long the build and warm-up took and any wrong output
// the warm-up's deliveries showed.
func measureSetup(wl *workloadDef, seed int64) (time.Duration, []string, error) {
	epoch := time.Now()
	topo, err := buildLive(wl, seed, nil)
	if err != nil {
		return 0, nil, err
	}
	r := newLiveRun(wl, topo, seed, nil, epoch, 0, time.Second)
	r.startReceivers()
	r.phase(context.Background(), int64(wl.warmEvents/len(r.pubs)), nil)
	took := time.Since(epoch)
	topo.close()
	r.wg.Wait()
	return took, r.wrong, nil
}
