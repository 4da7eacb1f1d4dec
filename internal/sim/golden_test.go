package sim

import (
	"fmt"
	"hash/fnv"
	"testing"

	"damulticast/internal/core"
	"damulticast/internal/scenario"
	"damulticast/internal/simnet"
)

// protocolDigest runs one seeded paper-topology scenario — stillborn
// failures, lossy channels, intra- and cross-group recovery, a
// partition that heals — and folds the protocol's complete observable
// stream into one FNV-1a digest: every send (round, sender, receiver,
// message type, carried event ids, drop decision) and every delivery
// (round, process, event id). Unlike the kernel digest it runs
// core.Process end to end, so it pins the order of every random draw
// the protocol makes: a refactor that reorders the Fig. 7 election's
// draws changes which target a draw lands on and fails it.
func protocolDigest(t *testing.T, workers int) string {
	t.Helper()
	cfg := PaperConfig(0.9, 20260417)
	cfg.Params.RecoverPeriod = 2
	cfg.Params.CrossRecoverPeriod = 3
	cfg.Workers = workers
	t0, t1, _ := PaperTopics()
	sc := Scenario{
		Name:   "golden",
		Rounds: 16,
		Events: []scenario.Event{
			{Round: 0, Kind: scenario.Publish},
			{Round: 1, Kind: scenario.Partition, Cells: 2},
			{Round: 2, Kind: scenario.Publish},
			{Round: 3, Kind: scenario.Publish, Topic: t1},
			{Round: 8, Kind: scenario.Heal},
			{Round: 8, Kind: scenario.Publish},
			{Round: 9, Kind: scenario.Publish, Topic: t0},
		},
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}

	h := fnv.New64a()
	onSend, onRoundEnd := r.net.OnSend, r.net.OnRoundEnd
	r.net.OnSend = func(env simnet.Envelope, dropped bool) {
		if m, ok := env.Msg.(*core.Message); ok {
			fmt.Fprintf(h, "s|%d|%s|%s|%s|", r.net.Round(), env.From, env.To, m.Type)
			if m.Event != nil {
				fmt.Fprintf(h, "%s/%d,", m.Event.ID.Origin, m.Event.ID.Seq)
			}
			for _, ev := range m.Events {
				fmt.Fprintf(h, "%s/%d,", ev.ID.Origin, ev.ID.Seq)
			}
			fmt.Fprintf(h, "|%v\n", dropped)
		}
		onSend(env, dropped)
	}
	r.net.OnRoundEnd = func(rd int) {
		for _, e := range r.envs {
			for _, ev := range e.pending {
				fmt.Fprintf(h, "d|%d|%s|%s/%d\n", rd, e.id, ev.ID.Origin, ev.ID.Seq)
			}
		}
		onRoundEnd(rd)
	}

	res, err := r.RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "k|%v\n", res.KindTotals)
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenProtocolDigest pins the protocol's exact observable behaviour
// for the scenario above. A change that is meant to preserve behaviour
// must reproduce it bit for bit; a change that alters the protocol on
// purpose re-pins it in a commit of its own that says why.
const goldenProtocolDigest = "15df20e44cd212f7"

// TestGoldenProtocolDigest is the before/after behaviour gate for
// protocol refactors, for every kernel worker count.
func TestGoldenProtocolDigest(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		if got := protocolDigest(t, workers); got != goldenProtocolDigest {
			t.Errorf("workers=%d: protocol digest = %s, want %s", workers, got, goldenProtocolDigest)
		}
	}
}
