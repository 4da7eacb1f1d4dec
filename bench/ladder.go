package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"damulticast"
	"damulticast/internal/core"
	"damulticast/internal/ids"
	imetrics "damulticast/internal/metrics"
	"damulticast/internal/scale"
	"damulticast/internal/simnet"
	"damulticast/internal/topic"
	"damulticast/internal/wire"
)

// The ladder replays work through one layer at a time, outside-in, on
// one goroutine, so that its rungs subtract: a full hub fed captured
// frames, minus the decode of those frames, minus core.Process
// handling the decoded messages, leaves what the hub itself costs
// (demux, queues, the Events hand-off). Every traced run climbs the
// whole ladder at the same fixed sizes, whatever its workload, so a
// change to any layer shows in every trace file.

const ladderPasses = 5

// timePasses runs fn ladderPasses times and returns the median time
// per operation in ns; fn returns how many operations it did.
func timePasses(fn func() int) float64 {
	per := make([]float64, 0, ladderPasses)
	for i := 0; i < ladderPasses; i++ {
		start := time.Now()
		ops := fn()
		if took := time.Since(start); ops > 0 {
			per = append(per, float64(took)/float64(ops))
		}
	}
	return median(per)
}

// ladderInput is a sample of event frames as they reached one
// subscriber, and how that subscriber was placed.
type ladderInput struct {
	frames [][]byte
	wl     *workloadDef
	ep     int      // the capturing hub's index in wl.hubs
	addrs  []string // the topology's addresses
}

func (in *ladderInput) spec() hubSpec              { return in.wl.hubs[in.ep] }
func (in *ladderInput) pick(idx []int) []string    { return pickAddrs(in.addrs, idx) }
func (in *ladderInput) params() damulticast.Params { return liveParams(in.wl) }

func eventsIn(m *core.Message) int {
	n := len(m.Events)
	if m.Event != nil {
		n++
	}
	return n
}

// wireRungs times PeekDest, pooled decode and encode over the frames.
func wireRungs(frames [][]byte, out map[string]float64) (events int, msgs []*core.Message, err error) {
	sizes := make([]float64, len(frames))
	for i, f := range frames {
		sizes[i] = float64(len(f))
		m, err := wire.DecodeMessage(f)
		if err != nil {
			return 0, nil, fmt.Errorf("captured frame %d: %w", i, err)
		}
		msgs = append(msgs, m)
		events += eventsIn(m)
	}
	out["wire.events_per_frame"] = float64(events) / float64(len(frames))
	out["wire.frame_bytes_p50"] = median(sizes)

	out["wire.peek_ns_per_frame"] = timePasses(func() int {
		for _, f := range frames {
			if _, _, err := wire.PeekDest(f); err != nil {
				panic(err) // decoded a moment ago
			}
		}
		return len(frames)
	})

	dec := wire.NewDecoder()
	decode := func() int {
		for _, f := range frames {
			if _, err := dec.Decode(f); err != nil {
				panic(err)
			}
		}
		return len(frames)
	}
	decode() // fill the decoder's intern table and scratch
	ms := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(ms)
	a0 := ms[0].Value.Uint64()
	perFrame := timePasses(decode)
	metrics.Read(ms)
	out["wire.decode_ns_per_frame"] = perFrame
	out["wire.decode_ns_per_event"] = perFrame * float64(len(frames)) / float64(events)
	out["wire.decode_allocs_per_frame"] = float64(ms[0].Value.Uint64()-a0) / float64(ladderPasses*len(frames))

	var buf []byte
	out["wire.encode_ns_per_frame"] = timePasses(func() int {
		for _, m := range msgs {
			buf = wire.AppendMessage(buf[:0], m)
		}
		return len(msgs)
	})
	return events, msgs, nil
}

// loopbackRung sends the frames across a bare pair of the workload's
// transport to a handler that only counts, a window at a time so the
// receiver's queue never overflows.
func loopbackRung(frames [][]byte, tcp bool) (float64, error) {
	var a, b damulticast.Transport
	var err error
	if tcp {
		if a, err = damulticast.NewTCPTransport("127.0.0.1:0"); err != nil {
			return 0, err
		}
		defer a.Close()
		if b, err = damulticast.NewTCPTransport("127.0.0.1:0"); err != nil {
			return 0, err
		}
	} else {
		net := damulticast.NewMemNetwork()
		if a, err = net.AddTransport("a"); err != nil {
			return 0, err
		}
		defer a.Close()
		if b, err = net.AddTransport("b"); err != nil {
			return 0, err
		}
	}
	defer b.Close()
	var got atomic.Int64
	a.SetHandler(func([]byte) {})
	b.SetHandler(func([]byte) { got.Add(1) })

	const window = 512
	deadline := time.Now().Add(10 * time.Second)
	per := timePasses(func() int {
		base := got.Load()
		for i, f := range frames {
			if err := a.Send(b.Addr(), f); err != nil {
				return 0
			}
			if (i+1)%window == 0 || i == len(frames)-1 {
				for got.Load()-base < int64(i+1) && time.Now().Before(deadline) {
					runtime.Gosched()
				}
			}
		}
		return len(frames)
	})
	if time.Now().After(deadline) {
		return 0, fmt.Errorf("loopback: frames did not arrive")
	}
	return per, nil
}

// stubTransport is a Transport whose sends go nowhere and whose
// handler the ladder calls directly.
type stubTransport struct {
	addr    string
	handler func([]byte)
}

func (s *stubTransport) Addr() string              { return s.addr }
func (s *stubTransport) Send(string, []byte) error { return nil }
func (s *stubTransport) SetHandler(h func([]byte)) { s.handler = h }
func (s *stubTransport) Close() error              { return nil }

// hubReplayRung feeds the frames to a full hub, placed like the one
// they were captured at, through a stub transport, and reads every
// delivery off Events(). Frames after the last first-time event are
// left out, so the last delivery marks the end of the hub's work.
func hubReplayRung(in *ladderInput, msgs []*core.Message) (float64, error) {
	seen := map[ids.EventID]bool{}
	expect := make([]int, len(msgs)) // deliveries due once frame i is handled
	last, uniq := -1, 0
	for i, m := range msgs {
		evs := m.Events
		if m.Event != nil {
			evs = append([]*core.Event{m.Event}, evs...)
		}
		for _, ev := range evs {
			if !seen[ev.ID] {
				seen[ev.ID] = true
				uniq++
				last = i
			}
		}
		expect[i] = uniq
	}
	if last < 0 {
		return 0, fmt.Errorf("hub replay: no events in the captured frames")
	}
	frames := in.frames[:last+1]
	events := 0
	for _, m := range msgs[:last+1] {
		events += eventsIn(m)
	}

	var fail error
	per := timePasses(func() int {
		stub := &stubTransport{addr: in.addrs[in.ep]}
		hub, err := damulticast.NewHub(stub, damulticast.WithParams(in.params()))
		if err != nil {
			fail = err
			return 0
		}
		defer hub.Stop()
		sub, err := hub.Join(context.Background(), in.spec().topic, joinOptions(in.spec(), in.addrs)...)
		if err != nil {
			fail = err
			return 0
		}
		got := 0
		timeout := time.NewTimer(10 * time.Second)
		defer timeout.Stop()
		const window = 256 // below the hub's 1024-frame inbox
		for i, f := range frames {
			stub.handler(f)
			if (i+1)%window != 0 && i != len(frames)-1 {
				continue
			}
			for got < expect[i] {
				select {
				case <-sub.Events():
					got++
				case <-timeout.C:
					fail = fmt.Errorf("hub replay: %d of %d deliveries", got, expect[i])
					return 0
				}
			}
		}
		return events
	})
	return per, fail
}

// countEnv is a core.Env that counts and does nothing else.
type countEnv struct {
	rng       *rand.Rand
	sends     int64
	delivered int64
}

func (e *countEnv) Send(ids.ProcessID, *core.Message)             { e.sends++ }
func (e *countEnv) SendBatch(to []ids.ProcessID, _ *core.Message) { e.sends += int64(len(to)) }
func (e *countEnv) Deliver(*core.Event)                           { e.delivered++ }
func (e *countEnv) Neighborhood(int) []ids.ProcessID              { return nil }
func (e *countEnv) Rand() *rand.Rand                              { return e.rng }

func toIDs(addrs []string) []ids.ProcessID {
	out := make([]ids.ProcessID, len(addrs))
	for i, a := range addrs {
		out[i] = ids.ProcessID(a)
	}
	return out
}

// newProcess places a bare core.Process like the capturing hub's
// subscription.
func newProcess(in *ladderInput, env core.Env) (*core.Process, error) {
	hs := in.spec()
	params := in.params()
	params.GroupSizeHint = len(hs.groupContacts) + 1
	p, err := core.NewProcess(ids.ProcessID(in.addrs[in.ep]), topic.Topic(hs.topic), params, env)
	if err != nil {
		return nil, err
	}
	p.SeedTopicTable(toIDs(in.pick(hs.groupContacts)))
	if len(hs.superContacts) > 0 {
		p.SeedSuperTable(topic.Topic(hs.superTopic), toIDs(in.pick(hs.superContacts)))
	}
	return p, nil
}

// coreRungs hands the decoded messages to a bare core.Process, then
// times its publish path.
func coreRungs(in *ladderInput, msgs []*core.Message, events int, out map[string]float64) error {
	var fail error
	var env *countEnv
	out["core.handle_ns_per_event"] = timePasses(func() int {
		env = &countEnv{rng: rand.New(rand.NewSource(1))}
		p, err := newProcess(in, env)
		if err != nil {
			fail = err
			return 0
		}
		for _, m := range msgs {
			p.HandleMessage(m)
		}
		return events
	})
	if fail != nil {
		return fail
	}
	out["core.sends_per_event"] = float64(env.sends) / float64(events)
	out["core.duplicate_ratio"] = 1 - float64(env.delivered)/float64(events)

	const publishes = 20000
	payload := make([]byte, payloadBytes)
	batch := make([][]byte, in.wl.batch)
	for i := range batch {
		batch[i] = payload
	}
	out["core.publish_ns_per_event"] = timePasses(func() int {
		p, err := newProcess(in, &countEnv{rng: rand.New(rand.NewSource(1))})
		if err != nil {
			fail = err
			return 0
		}
		for i := 0; i < publishes; i += len(batch) {
			if len(batch) == 1 {
				_, err = p.Publish(payload)
			} else {
				_, err = p.PublishBatch(batch)
			}
			if err != nil {
				fail = err
				return 0
			}
		}
		return publishes
	})
	return fail
}

// liveLadder climbs the wire, transport, hub and core rungs.
func liveLadder(in *ladderInput, out map[string]float64) error {
	if len(in.frames) == 0 {
		return fmt.Errorf("ladder: no frames were captured")
	}
	events, msgs, err := wireRungs(in.frames, out)
	if err != nil {
		return err
	}
	if out["transport.loopback_ns_per_frame"], err = loopbackRung(in.frames, in.wl.tcp); err != nil {
		return err
	}
	if out["hub.replay_ns_per_event"], err = hubReplayRung(in, msgs); err != nil {
		return err
	}
	if err := coreRungs(in, msgs, events, out); err != nil {
		return err
	}
	out["hub.self_ns_per_event"] = out["hub.replay_ns_per_event"] -
		out["wire.decode_ns_per_event"] - out["core.handle_ns_per_event"]
	return nil
}

const ladderReps = 3

// repsOf runs a fixed job ladderReps times.
func repsOf(wl *workloadDef, seed int64, workers int) ([]*jobRep, error) {
	var reps []*jobRep
	for i := 0; i < ladderReps; i++ {
		rep, _, err := runRep(wl, seed, workers, nil)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

func medianOf(reps []*jobRep, f func(*jobRep) float64) float64 { return median(perJob(reps, f)) }

func wallSeconds(r *jobRep) float64 { return r.wall.Seconds() }

// nullNode is a simnet node that forwards a wave it has not seen to a
// fixed set of targets and does nothing else: the kernel's own cost
// per message, without core.Process.
type nullNode struct {
	id      ids.ProcessID
	net     *simnet.Network
	targets []ids.ProcessID
	wave    int
	sent    int64
}

func (n *nullNode) ID() ids.ProcessID { return n.id }
func (n *nullNode) Tick()             {}
func (n *nullNode) HandleMessage(msg any) {
	w, ok := msg.(int)
	if !ok || w <= n.wave {
		return
	}
	n.wave = w
	for _, t := range n.targets {
		n.net.Send(n.id, t, w)
	}
	n.sent += int64(len(n.targets))
}

// simnetRung steps a network of null nodes with the sim workload's
// population, fan-out and loss.
func simnetRung(wl *workloadDef, seed int64) (float64, error) {
	n := wl.population()
	fanout := int(math.Ceil(math.Log(float64(wl.groups[2])))) + 5
	net := simnet.New(seed)
	net.PSucc = jobPSucc
	net.Workers = 1
	rng := rand.New(rand.NewSource(seed))
	nodes := make([]*nullNode, n)
	for i := range nodes {
		nodes[i] = &nullNode{id: ids.Indexed("null", i), net: net}
	}
	for _, nd := range nodes {
		for len(nd.targets) < fanout {
			nd.targets = append(nd.targets, nodes[rng.Intn(n)].id)
		}
		if err := net.AddNode(nd); err != nil {
			return 0, err
		}
	}
	wave := 0
	return timePasses(func() int {
		var before int64
		for _, nd := range nodes {
			before += nd.sent
		}
		for p := 0; p < 20; p++ {
			wave++
			nodes[rng.Intn(n)].HandleMessage(wave)
			net.Run(jobMaxRounds)
		}
		var after int64
		for _, nd := range nodes {
			after += nd.sent
		}
		return int(after - before)
	}), nil
}

// simLadder climbs the sim, simnet and metrics rungs on the sim
// workload's topology, with fewer publications per job.
func simLadder(seed int64, out map[string]float64) error {
	wl := *findWorkload("sim_paper")
	wl.pubs = wl.ladderPubs
	one, err := repsOf(&wl, seed, 1)
	if err != nil {
		return err
	}
	two, err := repsOf(&wl, seed, 2)
	if err != nil {
		return err
	}
	c := one[0].jobCounts
	pubs := float64(wl.pubs)
	out["sim.build_s"] = medianOf(one, func(r *jobRep) float64 { return r.build.Seconds() })
	out["sim.run_ns_per_msg"] = medianOf(one, func(r *jobRep) float64 {
		return float64(r.wall) / float64(r.intra+r.inter)
	})
	out["sim.rounds_per_pub"] = float64(c.rounds) / pubs
	out["sim.msgs_intra"] = float64(c.intra) / pubs
	out["sim.msgs_inter"] = float64(c.inter) / pubs
	out["sim.msgs_dropped"] = float64(c.dropped) / pubs
	out["sim.reliability_t0"] = c.reliability[0]
	out["sim.reliability_t1"] = c.reliability[1]
	out["sim.reliability_t2"] = c.reliability[2]
	out["sim.workers2_speedup"] = medianOf(one, wallSeconds) / medianOf(two, wallSeconds)
	if out["simnet.step_ns_per_msg"], err = simnetRung(&wl, seed); err != nil {
		return err
	}

	reg := imetrics.NewRegistry()
	t := chainTopics()[2]
	out["metrics.inc_ns"] = timePasses(func() int {
		const n = 200000
		for i := 0; i < n; i++ {
			reg.IncIntra(t)
		}
		return n
	})
	return nil
}

// scaleLadder climbs the scale rungs on the scale workload's topology.
func scaleLadder(seed int64, out map[string]float64) error {
	wl := *findWorkload("scale_200k")
	wl.pubs = wl.ladderPubs
	cfg := scaleConfig(&wl, seed, 1)
	builds := make([]float64, 0, ladderReps)
	for i := 0; i < ladderReps; i++ {
		start := time.Now()
		if _, err := scale.NewStore(cfg.Groups, cfg.Params, seed, 1); err != nil {
			return err
		}
		builds = append(builds, time.Since(start).Seconds())
	}
	out["scale.store_build_s"] = median(builds)
	one, err := repsOf(&wl, seed, 1)
	if err != nil {
		return err
	}
	two, err := repsOf(&wl, seed, 2)
	if err != nil {
		return err
	}
	c := one[0].jobCounts
	out["scale.run_ns_per_msg"] = medianOf(one, func(r *jobRep) float64 {
		return float64(r.wall) / float64(r.intra+r.inter)
	})
	out["scale.rounds_per_pub"] = float64(c.rounds) / float64(wl.pubs)
	out["scale.state_bytes_per_proc"] = float64(c.stateBytes) / float64(wl.population())
	out["scale.msgs_dropped_ratio"] = float64(c.dropped) / float64(c.intra+c.inter)
	out["scale.workers2_speedup"] = medianOf(one, wallSeconds) / medianOf(two, wallSeconds)
	return nil
}
