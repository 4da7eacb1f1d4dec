package core

// Batched event dissemination for the live path. The per-event
// DISSEMINATE of Fig. 7 is unchanged — every event still draws its own
// upward election and its own ln(S)+c gossip targets, consuming the
// process's random stream exactly as sequential publishes would — but
// when several events are in flight at once (an application
// PublishBatch, or a whole inbound batch frame being re-disseminated),
// the elected (target, destination-group) pairs are accumulated first
// and each pair then receives ONE message carrying every event elected
// for it: MsgEventBatch when two or more rode together, a plain
// MsgEvent when only one did. N events to a shared target cost one
// frame instead of N.
//
// The simulation kernel never publishes batches, so none of this code
// runs under it and golden digests are unaffected.

import (
	"damulticast/internal/ids"
	"damulticast/internal/topic"
)

// MsgEventBatch carries several events for one destination group in a
// single frame (wire v5). The value continues the enum space of
// message.go / leave.go / recover.go; the MsgLeave+3 slot stays retired
// (see recover.go).
const MsgEventBatch MsgType = MsgLeave + 4

func init() {
	msgTypeNames[MsgEventBatch] = "EVENT_BATCH"
}

// RetainsEvents reports whether this process may retain *Event pointers
// past HandleMessage — the anti-entropy store does, holding events for
// later recovery pushes. Drivers that decode frames into reusable
// scratch (wire.Decoder) must deep-clone inbound events before handing
// them to a retaining process; for everyone else the events are only
// read synchronously.
func (p *Process) RetainsEvents() bool { return p.store != nil }

// PublishBatch creates one event per payload — ids, seen-window and
// recovery-store bookkeeping identical to the same sequence of Publish
// calls — and disseminates them coalesced: targets elected for several
// of the batch's events receive them in one MsgEventBatch frame.
func (p *Process) PublishBatch(payloads [][]byte) ([]*Event, error) {
	if p.stopped {
		return nil, ErrStopped
	}
	if len(payloads) == 0 {
		return nil, nil
	}
	evs := make([]*Event, len(payloads))
	acc := p.takeAccum()
	for i, payload := range payloads {
		evs[i] = p.newEvent(payload)
		p.disseminateInto(acc, evs[i])
	}
	p.flushAccum(acc)
	return evs, nil
}

// onEventBatch receives a batch frame: every first-time event of the
// batch is recorded, delivered, and re-disseminated — with the
// re-dissemination itself coalesced, so batching survives gossip hops
// instead of exploding back into one frame per event after the first.
func (p *Process) onEventBatch(m *Message) {
	acc := p.takeAccum()
	for _, ev := range m.Events {
		if ev == nil || !p.seen.Add(ev.ID) {
			continue // duplicate (or hole), like any gossiped duplicate
		}
		p.rememberEvent(ev)
		p.disseminateInto(acc, ev)
		p.env.Deliver(ev.Clone())
	}
	p.flushAccum(acc)
}

// batchFlight is one accumulated (target, destination group) pair and
// the events elected for it, in election order.
type batchFlight struct {
	to   ids.ProcessID
	dest topic.Topic
	evs  []*Event
}

type batchKey struct {
	to   ids.ProcessID
	dest topic.Topic
}

// batchAccum groups per-event election results by (target, group) in
// first-touch order, so the flush emits frames in a deterministic
// order.
type batchAccum struct {
	flights []batchFlight
	index   map[batchKey]int
}

func (a *batchAccum) add(to ids.ProcessID, dest topic.Topic, ev *Event) {
	k := batchKey{to: to, dest: dest}
	if i, ok := a.index[k]; ok {
		a.flights[i].evs = append(a.flights[i].evs, ev)
		return
	}
	a.index[k] = len(a.flights)
	a.flights = append(a.flights, batchFlight{to: to, dest: dest, evs: []*Event{ev}})
}

func (a *batchAccum) reset() {
	clear(a.index)
	a.flights = a.flights[:0]
}

// takeAccum hands out the process's reusable accumulator, detaching it
// first (the same reentrancy guard as p.batch in disseminate: a nested
// batch dissemination must not scribble over an accumulation in
// flight).
func (p *Process) takeAccum() *batchAccum {
	acc := p.accum
	p.accum = nil
	if acc == nil {
		acc = &batchAccum{index: make(map[batchKey]int)}
	}
	acc.reset()
	return acc
}

// disseminateInto runs one event's election (elect, the same draws
// disseminate makes) but accumulates the elected (target, group) pairs
// instead of sending immediately.
func (p *Process) disseminateInto(acc *batchAccum, ev *Event) {
	targets, segs := p.elect()
	start := 0
	for _, s := range segs {
		for _, to := range targets[start:s.end] {
			acc.add(to, s.dest, ev)
		}
		start = s.end
	}
	p.batch, p.segs = targets[:0], segs[:0]
}

// flushAccum emits one message per accumulated (target, group) pair —
// MsgEventBatch for several events, plain MsgEvent for one — and
// returns the accumulator for reuse. Sent messages are never mutated
// afterwards (receivers may retain them).
func (p *Process) flushAccum(acc *batchAccum) {
	for i := range acc.flights {
		f := &acc.flights[i]
		m := &Message{
			From:      p.id,
			FromTopic: p.topic,
			Dest:      f.dest,
		}
		if len(f.evs) == 1 {
			m.Type = MsgEvent
			m.Event = f.evs[0]
		} else {
			m.Type = MsgEventBatch
			m.Events = f.evs
		}
		p.env.Send(f.to, m)
	}
	p.accum = acc
}
