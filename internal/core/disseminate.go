package core

import (
	"errors"

	"damulticast/internal/ids"
	"damulticast/internal/xrand"
)

// ErrStopped is returned by Publish on a stopped process.
var ErrStopped = errors.New("core: process is stopped")

// Publish creates an event of this process's topic and disseminates it
// (paper Fig. 7, invoked by the publishing process itself).
func (p *Process) Publish(payload []byte) (*Event, error) {
	if p.stopped {
		return nil, ErrStopped
	}
	ev := p.newEvent(payload)
	p.disseminate(ev)
	return ev, nil
}

// newEvent creates the next event of this process's topic and records
// it in the seen window and the recovery store: the publisher has
// trivially "seen" its own event, and must not re-disseminate it if
// gossip echoes it back.
func (p *Process) newEvent(payload []byte) *Event {
	p.nextSeq++
	ev := &Event{
		ID:      ids.EventID{Origin: p.id, Seq: p.nextSeq},
		Topic:   p.topic,
		Payload: payload,
	}
	p.seen.Add(ev.ID)
	p.rememberEvent(ev)
	return ev
}

// onEvent is the RECEIVE handler of Fig. 5: first-time events are
// forwarded (DISSEMINATE) and delivered to the application; duplicates
// are dropped silently.
func (p *Process) onEvent(m *Message) {
	if m.Event != nil {
		p.receiveEvent(m.Event)
	}
}

// receiveEvent is the shared first-time reception path for gossiped
// and recovered events: record it in the seen window and the recovery
// store, forward it (DISSEMINATE) and deliver it to the application.
// It reports whether the event was new.
func (p *Process) receiveEvent(ev *Event) bool {
	if !p.seen.Add(ev.ID) {
		return false // already received
	}
	p.rememberEvent(ev)
	p.disseminate(ev)
	p.env.Deliver(ev.Clone())
	return true
}

// disseminate implements DISSEMINATE (Fig. 7) for one event: it runs
// the election and sends the event as ONE message per destination
// group via sendSegments. Batch-capable envs serialize it a single
// time per group, and every frame carries the Dest demux of the group
// it is for (supergroup targets live in a different group than the
// intra-group gossip targets).
func (p *Process) disseminate(ev *Event) {
	targets, segs := p.elect()
	// Reentrancy guard: should an Env ever deliver synchronously and
	// re-enter this process mid-fan-out, the nested disseminate must
	// allocate its own buffer rather than scribble over the one the
	// outer send loop is iterating. The grown buffers are kept after.
	p.batch, p.segs = nil, nil
	p.sendSegments(targets, segs, &Message{
		Type:      MsgEvent,
		From:      p.id,
		FromTopic: p.topic,
		Event:     ev,
	})
	p.batch, p.segs = targets[:0], segs[:0]
}

// elect makes one event's DISSEMINATE election (Fig. 7) — every random
// draw the dissemination of one event consumes, in order — and returns
// the elected targets in p.batch's buffer, split into one segment per
// destination group in p.segs's:
//
//  1. per supertopic table — the primary one, then each declared extra
//     supertopic's (§VIII) in sorted order — the process elects itself
//     as a link with probability pSel = g/S and then sends to each
//     entry with probability pA = a/z (lines 3-7);
//  2. the event is gossiped to ln(S)+c distinct random members of the
//     topic table (lines 8-14), never repeating a target for this
//     event (the paper's Ω set).
//
// Root-group processes have an empty supertopic table, so step 1 is a
// no-op for them ("the processes receiving the event only gossip it in
// their group").
func (p *Process) elect() ([]ids.ProcessID, []groupSeg) {
	r := p.env.Rand()
	targets := p.batch[:0]
	segs := p.segs[:0]

	// (1) Upward dissemination, independently per supertopic table
	// ("neither would hamper the overall performance").
	for i := -1; i < len(p.extraOrder); i++ {
		v, dest := p.superTable, p.superKnown
		if i >= 0 {
			dest = p.extraOrder[i]
			v = p.extras[dest]
		}
		if v.Len() == 0 || !xrand.Bernoulli(r, p.pSel()) {
			continue
		}
		pa := p.pA()
		for _, target := range v.IDs() {
			if xrand.Bernoulli(r, pa) && target != p.id {
				targets = append(targets, target)
			}
		}
		segs = appendSeg(segs, dest, len(targets))
	}

	// (2) Gossip within the group.
	for _, target := range p.topicTable.Sample(r, p.fanout()) {
		if target != p.id {
			targets = append(targets, target)
		}
	}
	segs = appendSeg(segs, p.topic, len(targets))
	return targets, segs
}
