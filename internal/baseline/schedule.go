package baseline

import (
	"fmt"

	"damulticast/internal/ids"
	"damulticast/internal/scenario"
	"damulticast/internal/simnet"
	"damulticast/internal/xrand"
)

// checkSchedule rejects what a baseline world cannot apply: its faults
// hit the whole population, so no event may target a topic; churn takes
// a Fraction, not a Count; and there are no groups to isolate. Publish
// events are accepted and skipped — the single publication is implicit
// at round 0.
func checkSchedule(events []scenario.Event) error {
	if err := scenario.Validate(events); err != nil {
		return err
	}
	for i, ev := range events {
		if ev.Kind == scenario.Isolate {
			return fmt.Errorf("event %d: %w: baselines cannot apply %v", i, scenario.ErrKind, ev.Kind)
		}
		if ev.Topic != "" {
			return fmt.Errorf("event %d: %w: baselines fault every process, not %s", i, scenario.ErrTopic, ev.Topic)
		}
		if ev.Count != 0 {
			return fmt.Errorf("event %d: %w: baselines take a Fraction, not a Count", i, scenario.ErrBadEvent)
		}
	}
	return nil
}

// applySchedule executes one fault between rounds (serial context).
func (w *world) applySchedule(ev scenario.Event) {
	switch ev.Kind {
	case scenario.CrashWave:
		alive := w.net.AliveIDs()
		n := int(float64(len(alive)) * ev.Fraction)
		for _, id := range xrand.SampleIDs(w.sched, alive, n) {
			_ = w.net.Crash(id)
		}
	case scenario.FlashCrowd:
		// The process model's state survives the outage, but a
		// restartee that had not yet seen the event stays without it:
		// the one-shot epidemic is long gone and baselines have no
		// recovery plane to win it back.
		var down []ids.ProcessID
		for _, n := range w.nodes {
			if w.net.Down(n.id) {
				down = append(down, n.id)
			}
		}
		n := int(float64(len(down)) * ev.Fraction)
		for _, id := range xrand.SampleIDs(w.sched, down, n) {
			w.net.Recover(id)
		}
	case scenario.Partition:
		cells := make(map[ids.ProcessID]int, len(w.nodes))
		for _, n := range w.nodes {
			cells[n.id] = scenario.Cell(w.cfg.Seed, ev.Round, n.id, ev.Cells)
		}
		w.net.SetLinkDown(func(from, to ids.ProcessID) bool {
			return cells[from] != cells[to]
		})
	case scenario.Heal:
		w.net.SetLinkDown(nil)
	case scenario.LossBurst:
		w.net.PSucc = ev.PSucc
	case scenario.LossRestore:
		w.net.PSucc = w.cfg.PSucc
	case scenario.Stragglers:
		if ev.Fraction <= 0 {
			w.net.SetLinkDelay(nil)
			return
		}
		w.net.SetLinkDelay(simnet.StragglerDelay(
			xrand.SeedFor(w.cfg.Seed, "stragglers"), ev.Fraction, ev.Delay))
	}
}
