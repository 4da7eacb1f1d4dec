package sim

import (
	"errors"
	"fmt"

	"damulticast/internal/core"
	"damulticast/internal/ids"
	"damulticast/internal/scenario"
	"damulticast/internal/simnet"
	"damulticast/internal/topic"
	"damulticast/internal/xrand"
)

// Scenario is a deterministic schedule of dynamic events driven over a
// fixed number of rounds. The same scenario with the same Config seed
// yields a byte-identical Result for any kernel worker count.
type Scenario struct {
	Name   string
	Rounds int
	Events []scenario.Event
}

// ErrBadRounds reports a scenario with no rounds to run.
var ErrBadRounds = errors.New("sim: scenario rounds must be >= 1")

// Validate checks the scenario's rounds and events: every event lies
// inside the run and passes scenario.Validate.
func (s Scenario) Validate() error {
	if s.Rounds < 1 {
		return ErrBadRounds
	}
	for i, ev := range s.Events {
		if ev.Round >= s.Rounds {
			return fmt.Errorf("%w: event %d round %d outside [0, %d)", scenario.ErrBadEvent, i, ev.Round, s.Rounds)
		}
	}
	return scenario.Validate(s.Events)
}

// RunScenario drives the built network through the scenario: events
// apply serially between rounds, every round steps the (possibly
// sharded) kernel once, and the aggregate Result covers all scenario
// publications. Unlike Run, the network does not stop at quiescence —
// exactly sc.Rounds rounds execute.
func (r *Runner) RunScenario(sc Scenario) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	for i, ev := range sc.Events {
		if ev.Topic != "" && r.targetGroups(ev.Topic) == nil {
			return nil, fmt.Errorf("event %d: %w: %s", i, scenario.ErrTopic, ev.Topic)
		}
		if ev.Count != 0 {
			return nil, fmt.Errorf("event %d: %w: the simulator takes a Fraction, not a Count", i, scenario.ErrBadEvent)
		}
	}
	events := scenario.Sorted(sc.Events)

	var evs []ids.EventID
	ei := 0
	for round := 0; round < sc.Rounds; round++ {
		for ei < len(events) && events[ei].Round <= round {
			if err := r.applyEvent(events[ei], &evs); err != nil {
				return nil, err
			}
			ei++
		}
		r.net.Step()
	}
	return r.collect(evs, sc.Rounds), nil
}

// RunScenario builds a network for cfg and drives it through sc.
func RunScenario(cfg Config, sc Scenario) (*Result, error) {
	r, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	return r.RunScenario(sc)
}

// targetGroups resolves an event's topic to group specs, in config
// order (deterministic).
func (r *Runner) targetGroups(t topic.Topic) []GroupSpec {
	if t == "" {
		return r.cfg.Groups
	}
	for _, g := range r.cfg.Groups {
		if g.Topic == t {
			return []GroupSpec{g}
		}
	}
	return nil
}

// applyEvent injects one scenario event. All mutations run serially
// between rounds and draw from the kernel's serial stream, so they are
// independent of the worker count.
func (r *Runner) applyEvent(ev scenario.Event, evs *[]ids.EventID) error {
	switch ev.Kind {
	case scenario.Publish:
		pubTopic := r.cfg.PublishTopic
		if ev.Topic != "" {
			pubTopic = ev.Topic
		}
		id, err := r.publishFromGroup(pubTopic, r.net.Rand())
		if err != nil {
			return err
		}
		*evs = append(*evs, id)
	case scenario.CrashWave:
		rng := r.net.Rand()
		for _, g := range r.targetGroups(ev.Topic) {
			var alive []*core.Process
			for _, p := range r.groups[g.Topic] {
				if !p.Stopped() {
					alive = append(alive, p)
				}
			}
			nCrash := int(float64(len(alive)) * ev.Fraction)
			perm := rng.Perm(len(alive))
			for i := 0; i < nCrash; i++ {
				p := alive[perm[i]]
				p.Stop()
				if err := r.net.Crash(p.ID()); err != nil {
					return err
				}
			}
		}
	case scenario.FlashCrowd:
		rng := r.net.Rand()
		for _, g := range r.targetGroups(ev.Topic) {
			members := r.groups[g.Topic]
			memberIDs := make([]ids.ProcessID, len(members))
			for i, p := range members {
				memberIDs[i] = p.ID()
			}
			var stopped []*core.Process
			for _, p := range members {
				if p.Stopped() {
					stopped = append(stopped, p)
				}
			}
			nJoin := int(float64(len(stopped)) * ev.Fraction)
			tableCap := xrand.ViewSize(g.Size, r.cfg.Params.B)
			superTopic, superIDs := r.nearestSupergroup(g.Topic)
			perm := rng.Perm(len(stopped))
			for i := 0; i < nJoin; i++ {
				p := stopped[perm[i]]
				p.Restart()
				r.net.Recover(p.ID())
				p.SeedTopicTable(sampleOthers(rng, memberIDs, p.ID(), tableCap))
				if superTopic != "" {
					p.SeedSuperTable(superTopic, xrand.SampleIDs(rng, superIDs, r.cfg.Params.Z))
				}
			}
		}
	case scenario.Partition:
		cells := make(map[ids.ProcessID]int)
		for _, g := range r.targetGroups(ev.Topic) {
			for _, p := range r.groups[g.Topic] {
				cells[p.ID()] = scenario.Cell(r.cfg.Seed, ev.Round, p.ID(), ev.Cells)
			}
		}
		r.net.SetLinkDown(func(from, to ids.ProcessID) bool {
			cf, okf := cells[from]
			ct, okt := cells[to]
			return okf && okt && cf != ct
		})
	case scenario.Isolate:
		inGroup := make(map[ids.ProcessID]bool)
		for _, g := range r.targetGroups(ev.Topic) {
			for _, p := range r.groups[g.Topic] {
				inGroup[p.ID()] = true
			}
		}
		r.net.SetLinkDown(func(from, to ids.ProcessID) bool {
			return inGroup[from] != inGroup[to]
		})
	case scenario.Heal:
		r.net.SetLinkDown(nil)
	case scenario.LossBurst:
		r.net.PSucc = ev.PSucc
	case scenario.LossRestore:
		r.net.PSucc = r.cfg.PSucc
	case scenario.Stragglers:
		if ev.Fraction <= 0 {
			r.net.SetLinkDelay(nil)
			break
		}
		r.net.SetLinkDelay(simnet.StragglerDelay(
			xrand.SeedFor(r.cfg.Seed, "stragglers"), ev.Fraction, ev.Delay))
	}
	return nil
}
