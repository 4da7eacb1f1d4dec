package core

import (
	"math/rand"
	"slices"

	"damulticast/internal/ids"
	"damulticast/internal/topic"
	"damulticast/internal/xrand"
)

// fakeEnv records everything a single process does.
type fakeEnv struct {
	sent      []sentMsg
	delivered []*Event
	neighbors []ids.ProcessID
	rng       *rand.Rand
}

type sentMsg struct {
	to  ids.ProcessID
	msg *Message
}

func newFakeEnv(seed int64) *fakeEnv {
	return &fakeEnv{rng: rand.New(rand.NewSource(seed))}
}

func (e *fakeEnv) Send(to ids.ProcessID, m *Message) {
	e.sent = append(e.sent, sentMsg{to: to, msg: m})
}

// SendBatch records one send per target of a copy of the lent message.
func (e *fakeEnv) SendBatch(targets []ids.ProcessID, m *Message) {
	cp := keepMessage(m)
	for _, to := range targets {
		e.Send(to, cp)
	}
}

func (e *fakeEnv) Deliver(ev *Event) { e.delivered = append(e.delivered, keepEvent(ev)) }

func (e *fakeEnv) Neighborhood(k int) []ids.ProcessID {
	return xrand.SampleIDs(e.rng, e.neighbors, k)
}

func (e *fakeEnv) Rand() *rand.Rand { return e.rng }

func (e *fakeEnv) sentOfType(t MsgType) []sentMsg {
	var out []sentMsg
	for _, s := range e.sent {
		if s.msg.Type == t {
			out = append(out, s)
		}
	}
	return out
}

func (e *fakeEnv) reset() {
	e.sent = nil
	e.delivered = nil
}

// kernel wires multiple processes together with immediate synchronous
// delivery — a minimal in-package cluster for integration tests.
// (The full round-based simulator with losses lives in internal/sim.)
type kernel struct {
	procs map[ids.ProcessID]*Process
	envs  map[ids.ProcessID]*kernelEnv
	rng   *rand.Rand
	// queue holds in-flight messages; pump() drains it.
	queue []kernelMsg
	// deliveries per process.
	delivered map[ids.ProcessID][]*Event
	// global overlay for Neighborhood.
	overlay []ids.ProcessID
}

type kernelMsg struct {
	to  ids.ProcessID
	msg *Message
}

type kernelEnv struct {
	k  *kernel
	id ids.ProcessID
}

func (e *kernelEnv) Send(to ids.ProcessID, m *Message) {
	e.k.queue = append(e.k.queue, kernelMsg{to: to, msg: m})
}

func (e *kernelEnv) SendBatch(targets []ids.ProcessID, m *Message) {
	cp := keepMessage(m)
	for _, to := range targets {
		e.Send(to, cp)
	}
}

func (e *kernelEnv) Deliver(ev *Event) {
	e.k.delivered[e.id] = append(e.k.delivered[e.id], keepEvent(ev))
}

// keepMessage copies a message lent to Env.SendBatch, as an env that
// keeps it must: the struct and its Events slice.
func keepMessage(m *Message) *Message {
	cp := *m
	cp.Events = slices.Clone(m.Events)
	return &cp
}

// keepEvent copies an event lent to Env.Deliver; its payload is
// already the env's.
func keepEvent(ev *Event) *Event {
	cp := *ev
	return &cp
}

func (e *kernelEnv) Neighborhood(k int) []ids.ProcessID {
	return xrand.SampleIDs(e.k.rng, e.k.overlay, k)
}

func (e *kernelEnv) Rand() *rand.Rand { return e.k.rng }

func newKernel(seed int64) *kernel {
	return &kernel{
		procs:     make(map[ids.ProcessID]*Process),
		envs:      make(map[ids.ProcessID]*kernelEnv),
		rng:       rand.New(rand.NewSource(seed)),
		delivered: make(map[ids.ProcessID][]*Event),
	}
}

// add creates a process in the kernel.
func (k *kernel) add(id ids.ProcessID, tp topic.Topic, params Params) *Process {
	env := &kernelEnv{k: k, id: id}
	k.envs[id] = env
	p := MustNewProcess(id, tp, params, env)
	k.procs[id] = p
	k.overlay = append(k.overlay, id)
	return p
}

// pump drains the message queue until empty or the step budget runs
// out, delivering each message to its target process.
func (k *kernel) pump(maxSteps int) int {
	steps := 0
	for len(k.queue) > 0 && steps < maxSteps {
		m := k.queue[0]
		k.queue = k.queue[1:]
		if p, ok := k.procs[m.to]; ok {
			p.HandleMessage(m.msg)
		}
		steps++
	}
	return steps
}

// tickAll advances every process one tick, then pumps.
func (k *kernel) tickAll(maxSteps int) {
	for _, p := range k.procs {
		p.Tick()
	}
	k.pump(maxSteps)
}
