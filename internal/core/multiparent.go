package core

import (
	"errors"
	"fmt"
	"slices"

	"damulticast/internal/ids"
	"damulticast/internal/membership"
	"damulticast/internal/topic"
)

// Multiple supertopics (§VIII, "Concluding Remarks"): the paper
// sketches multiple inheritance — a topic having several direct
// supertopics — "by adding a supertopic table for each supertopic".
// This file implements exactly that: besides the primary supertopic
// derived from the topic name, an application may declare extra parent
// topics (which need not be name-prefixes — that is the point of
// multiple inheritance). Each extra parent gets its own constant-size
// table; dissemination elects itself independently per table, and the
// KEEP_TABLE_UPDATED liveness machinery covers extra tables alongside
// the primary one.

// ErrBadExtraSuper rejects invalid extra-supertopic declarations.
var ErrBadExtraSuper = errors.New("core: invalid extra supertopic")

// AddExtraSuperTable declares an additional direct supertopic and
// seeds its table with contacts interested in it. The supertopic may
// be any topic other than the process's own and may lie outside the
// name hierarchy (e.g. ".sports.football" additionally under
// ".entertainment"). Later calls with the same topic merge contacts.
func (p *Process) AddExtraSuperTable(sup topic.Topic, contacts []ids.ProcessID) error {
	if !sup.Valid() {
		return fmt.Errorf("%w: %q", ErrBadExtraSuper, string(sup))
	}
	if sup == p.topic {
		return fmt.Errorf("%w: %s is the process's own topic", ErrBadExtraSuper, sup)
	}
	if sup == p.topic.Super() {
		return fmt.Errorf("%w: %s is the primary supertopic", ErrBadExtraSuper, sup)
	}
	if p.extras == nil {
		p.extras = make(map[topic.Topic]*membership.View)
		p.extraSeen = make(map[topic.Topic]map[ids.ProcessID]int)
	}
	v, ok := p.extras[sup]
	if !ok {
		v = membership.NewView(p.id, p.params.Z)
		p.extras[sup] = v
		p.extraSeen[sup] = make(map[ids.ProcessID]int, p.params.Z)
		i, _ := slices.BinarySearch(p.extraOrder, sup)
		p.extraOrder = slices.Insert(p.extraOrder, i, sup)
	}
	for _, c := range contacts {
		if v.Add(c) {
			p.extraSeen[sup][c] = p.tick
		}
	}
	return nil
}

// RemoveExtraSuperTable drops a declared extra supertopic.
func (p *Process) RemoveExtraSuperTable(sup topic.Topic) {
	if _, ok := p.extras[sup]; ok {
		i, _ := slices.BinarySearch(p.extraOrder, sup)
		p.extraOrder = slices.Delete(p.extraOrder, i, i+1)
	}
	delete(p.extras, sup)
	delete(p.extraSeen, sup)
}

// ExtraSuperTopics lists the declared extra supertopics in sorted
// order.
func (p *Process) ExtraSuperTopics() []topic.Topic {
	out := make([]topic.Topic, 0, len(p.extraOrder))
	return append(out, p.extraOrder...)
}

// ExtraSuperTable returns the contacts of one extra supertopic table.
func (p *Process) ExtraSuperTable(sup topic.Topic) []ids.ProcessID {
	v, ok := p.extras[sup]
	if !ok {
		return nil
	}
	return v.IDs()
}

// pingExtras extends a liveness wave to the extra tables.
func (p *Process) pingExtras() {
	for _, sup := range p.extraOrder {
		v := p.extras[sup]
		for _, target := range v.IDs() {
			p.env.Send(target, &Message{
				Type:      MsgPing,
				From:      p.id,
				FromTopic: p.topic,
				Dest:      sup,
			})
		}
	}
}

// recordExtraPong credits a pong against every extra table containing
// the sender.
func (p *Process) recordExtraPong(from ids.ProcessID) {
	for _, sup := range p.extraOrder {
		if p.extras[sup].Contains(from) {
			p.extraSeen[sup][from] = p.tick
		}
	}
}

// resolveExtraChecks applies the CHECK logic per extra table: evict
// the silent, ask the live for fresh members when at or below τ.
func (p *Process) resolveExtraChecks(waveStart int) {
	for _, sup := range p.extraOrder {
		v := p.extras[sup]
		var live, dead []ids.ProcessID
		for _, id := range v.IDs() {
			if seen, ok := p.extraSeen[sup][id]; ok && seen >= waveStart {
				live = append(live, id)
			} else {
				dead = append(dead, id)
			}
		}
		for _, id := range dead {
			v.Remove(id)
			delete(p.extraSeen[sup], id)
		}
		if len(live) > 0 && len(live) <= p.params.Tau {
			for _, id := range live {
				p.env.Send(id, &Message{
					Type:      MsgNewProcessReq,
					From:      p.id,
					FromTopic: p.topic,
					Dest:      sup,
				})
			}
		}
	}
}

// mergeExtraContacts folds a NEWPROCESS answer into a matching extra
// table, if any. Reports whether the answer was consumed.
func (p *Process) mergeExtraContacts(sup topic.Topic, contacts []ids.ProcessID) bool {
	v, ok := p.extras[sup]
	if !ok {
		return false
	}
	for _, c := range contacts {
		if v.Add(c) {
			p.extraSeen[sup][c] = p.tick
		}
	}
	return true
}
