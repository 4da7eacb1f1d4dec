// Package scenario is the one vocabulary of timed adversity shared by
// the round-driven simulator (internal/sim), the §IV baselines
// (internal/baseline) and the live chaos soak (internal/chaos): one
// Event type, one name table, one Validate, one order of application
// and one partition-cell hash. Each of those packages keeps only its
// applier, which rejects the kinds it cannot apply with ErrKind.
package scenario

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"damulticast/internal/ids"
	"damulticast/internal/topic"
	"damulticast/internal/xrand"
)

// Kind enumerates the events a scenario can inject.
type Kind int

// Event kinds.
const (
	// Publish publishes one event from a random alive member of the
	// publish group (Topic overrides the run's publish topic when set).
	Publish Kind = iota + 1
	// CrashWave stops and crashes Fraction (or Count) of the currently
	// alive members of Topic (every group when Topic is empty) — a
	// correlated churn wave.
	CrashWave
	// FlashCrowd restarts Fraction (or Count; 0 = all) of the currently
	// stopped members of Topic (every group when empty) — a burst of
	// simultaneous subscriptions.
	FlashCrowd
	// Partition splits the members of Topic (every group when empty)
	// into Cells cells; messages crossing cells are dropped until a
	// Heal.
	Partition
	// Heal removes the current partition or isolation.
	Heal
	// LossBurst sets the channel success probability to PSucc
	// (correlated message loss) until a LossRestore.
	LossBurst
	// LossRestore restores the configured channel success probability.
	LossRestore
	// Stragglers makes Fraction of all sends spend between 1 and Delay
	// extra rounds in flight (per-link latency skew). Fraction 0 clears
	// any straggler distribution.
	Stragglers
	// Isolate cuts every link crossing the boundary of Topic's group:
	// members keep talking to each other, but nothing flows in or out
	// until a Heal.
	Isolate
)

var kindNames = [...]string{
	Publish:     "publish",
	CrashWave:   "crash-wave",
	FlashCrowd:  "flash-crowd",
	Partition:   "partition",
	Heal:        "heal",
	LossBurst:   "loss-burst",
	LossRestore: "loss-restore",
	Stragglers:  "stragglers",
	Isolate:     "isolate",
}

// String names the kind.
func (k Kind) String() string {
	if k > 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one timed injection. Round r means "after r rounds have
// executed" for the round-driven appliers (round 0 applies before the
// first step) and "at the start of step r" for the chaos soak.
type Event struct {
	Round int
	Kind  Kind
	// Topic targets one group; empty targets every group (crash wave,
	// flash crowd, partition) or the run's publish topic (publish).
	Topic topic.Topic
	// Fraction of candidates affected (crash wave, flash crowd) or of
	// sends delayed (stragglers).
	Fraction float64
	// Count of endpoints affected (crash wave, flash crowd) where the
	// applier counts rather than takes a fraction.
	Count int
	// Cells is the partition cell count (>= 2).
	Cells int
	// PSucc is the loss-burst channel success probability in (0, 1].
	PSucc float64
	// Delay is the stragglers' maximum extra rounds in flight (>= 1
	// when Fraction > 0).
	Delay int
}

// Validation errors. ErrKind also reports a kind an applier cannot
// apply, and ErrTopic a topic that names no group of the run.
var (
	ErrBadEvent    = errors.New("scenario: bad event")
	ErrKind        = errors.New("scenario: unsupported event kind")
	ErrTopic       = errors.New("scenario: topic names no group")
	ErrNoPartition = errors.New("scenario: heal without partition")
)

// Validate checks every event's fields, and that every heal follows a
// partition or an isolation in application order.
func Validate(events []Event) error {
	for i, ev := range events {
		if err := ev.check(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	partitioned := false
	for _, ev := range Sorted(events) {
		switch ev.Kind {
		case Partition, Isolate:
			partitioned = true
		case Heal:
			if !partitioned {
				return fmt.Errorf("%w: heal at round %d", ErrNoPartition, ev.Round)
			}
			partitioned = false
		}
	}
	return nil
}

func (ev Event) check() error {
	if ev.Round < 0 {
		return fmt.Errorf("%w: negative round %d", ErrBadEvent, ev.Round)
	}
	if ev.Count < 0 {
		return fmt.Errorf("%w: negative count %d", ErrBadEvent, ev.Count)
	}
	switch ev.Kind {
	case Publish, Heal, LossRestore:
	case CrashWave, FlashCrowd:
		if ev.Fraction < 0 || ev.Fraction > 1 {
			return fmt.Errorf("%w: fraction %g", ErrBadEvent, ev.Fraction)
		}
	case Partition:
		if ev.Cells < 2 {
			return fmt.Errorf("%w: partition needs >= 2 cells, got %d", ErrBadEvent, ev.Cells)
		}
	case LossBurst:
		if ev.PSucc <= 0 || ev.PSucc > 1 {
			return fmt.Errorf("%w: psucc %g", ErrBadEvent, ev.PSucc)
		}
	case Stragglers:
		if ev.Fraction < 0 || ev.Fraction > 1 {
			return fmt.Errorf("%w: fraction %g", ErrBadEvent, ev.Fraction)
		}
		if ev.Fraction > 0 && ev.Delay < 1 {
			return fmt.Errorf("%w: stragglers need Delay >= 1", ErrBadEvent)
		}
	case Isolate:
		if ev.Topic == "" {
			return fmt.Errorf("%w: isolate needs a topic", ErrBadEvent)
		}
	default:
		return fmt.Errorf("%w: %v", ErrKind, ev.Kind)
	}
	return nil
}

// Sorted returns a copy of events in application order: stably sorted
// by round, so events of one round keep their declared order.
func Sorted(events []Event) []Event {
	out := slices.Clone(events)
	slices.SortStableFunc(out, func(a, b Event) int { return cmp.Compare(a.Round, b.Round) })
	return out
}

// Cell assigns process id to one of cells partition cells for a
// partition applied at round, from a pure hash of (seed, round, id):
// every applier that partitions the same ids under the same seed cuts
// the same links.
func Cell(seed int64, round int, id ids.ProcessID, cells int) int {
	return int(xrand.HashUniform(seed+int64(round), "cell:"+string(id)) * float64(cells))
}

// GenSchedule derives a deterministic soak schedule from a seed: a
// fixed skeleton guaranteeing every kind the chaos soak applies fires —
// publish, then a partition with a publish inside it, a crash wave, a
// loss burst with another publish, then heal/restore/flash crowd and
// trailing publishes — with the exact step offsets, crash count, loss
// rate and publish density drawn from the seeded stream. The same
// (seed, steps) always yields the same schedule, byte for byte;
// replaying a soak is re-running its seed.
func GenSchedule(seed int64, steps int) []Event {
	if steps < 10 {
		steps = 10
	}
	rng := xrand.NewStream(seed, "chaos:schedule")
	out := []Event{{Round: 0, Kind: Publish}}
	partAt := 1 + rng.Intn(2)
	out = append(out, Event{Round: partAt, Kind: Partition, Cells: 2})
	out = append(out, Event{Round: partAt + 1, Kind: Publish})
	crashAt := partAt + 1 + rng.Intn(2)
	out = append(out, Event{Round: crashAt, Kind: CrashWave, Count: 1 + rng.Intn(3)})
	lossAt := crashAt + 1
	out = append(out, Event{Round: lossAt, Kind: LossBurst, PSucc: 1 - (0.2 + 0.3*rng.Float64())})
	out = append(out, Event{Round: lossAt + 1, Kind: Publish})
	healAt := lossAt + 2
	out = append(out, Event{Round: healAt, Kind: Heal})
	out = append(out, Event{Round: healAt, Kind: LossRestore})
	out = append(out, Event{Round: healAt + 1, Kind: FlashCrowd})
	for s := healAt + 2; s < steps-1; s++ {
		if rng.Float64() < 0.5 {
			out = append(out, Event{Round: s, Kind: Publish})
		}
	}
	out = append(out, Event{Round: steps - 1, Kind: Publish})
	return out
}
