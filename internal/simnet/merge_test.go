package simnet

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"damulticast/internal/ids"
)

// ttlNode forwards every message it receives to its fixed target list,
// decrementing a hop budget carried in the message, and counts what it
// received.
type ttlNode struct {
	id      ids.ProcessID
	net     *Network
	targets []ids.ProcessID
	got     int
}

func (f *ttlNode) ID() ids.ProcessID { return f.id }
func (f *ttlNode) Tick()             {}
func (f *ttlNode) HandleMessage(msg any) {
	f.got++
	hops := msg.(int)
	if hops <= 0 {
		return
	}
	for _, to := range f.targets {
		f.net.Send(f.id, to, hops-1)
	}
}

// mergeRun drives a small network whose outboxes mix node targets, a
// target that is no node, and repeated targets; between its two rounds
// it adds a node whose id sorts between existing ids. It returns the
// OnSend stream of each round's merge and the late node's receive
// count.
func mergeRun(t *testing.T, workers int) (rounds [][]Envelope, lateGot int) {
	t.Helper()
	net := New(11)
	net.Workers = workers
	net.PSucc = 0.9
	add := func(id ids.ProcessID, targets ...ids.ProcessID) *ttlNode {
		nd := &ttlNode{id: id, net: net, targets: targets}
		if err := net.AddNode(nd); err != nil {
			t.Fatal(err)
		}
		return nd
	}
	add("x", "c", "ghost", "a", "c", "m")
	add("c", "x", "m", "a", "x")
	add("a", "m", "z", "ghost", "c", "a")
	add("z", "a", "x", "c", "z", "ghost", "x")

	var stream []Envelope
	net.OnSend = func(env Envelope, dropped bool) { stream = append(stream, env) }
	for _, id := range []ids.ProcessID{"z", "a", "x", "c"} {
		net.Send("ext", id, 2)
	}
	stream = nil
	net.Step()
	rounds = append(rounds, stream)

	// "m" was a target before it was a node; its id sorts between "c"
	// and "x", so every rank after it must move.
	late := add("m", "x", "ghost", "a", "m")
	stream = nil
	net.Step()
	rounds = append(rounds, stream)
	return rounds, late.got
}

// compareEnvelopes is the reference canonical order on the id strings.
func compareEnvelopes(a, b Envelope) int {
	if c := strings.Compare(string(a.From), string(b.From)); c != 0 {
		return c
	}
	if c := strings.Compare(string(a.To), string(b.To)); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// TestCanonicalMergeOrderMixedTargets checks that each round's OnSend
// stream equals a reference sort by (From, To, Seq) on the id strings,
// for outboxes that mix node targets, a non-node target and repeated
// targets, across a node added between rounds — and that the stream is
// the same for every worker count.
func TestCanonicalMergeOrderMixedTargets(t *testing.T) {
	var ref [][]Envelope
	for _, workers := range []int{1, 4} {
		rounds, lateGot := mergeRun(t, workers)
		for r, stream := range rounds {
			if len(stream) == 0 {
				t.Fatalf("workers=%d round %d: no sends merged", workers, r+1)
			}
			want := slices.SortedFunc(slices.Values(stream), compareEnvelopes)
			if !reflect.DeepEqual(stream, want) {
				t.Errorf("workers=%d round %d: merge order\n got %s\nwant %s",
					workers, r+1, envString(stream), envString(want))
			}
		}
		if lateGot == 0 {
			t.Errorf("workers=%d: a send queued before its target was added was not delivered", workers)
		}
		if ref == nil {
			ref = rounds
		} else if !reflect.DeepEqual(rounds, ref) {
			t.Errorf("workers=%d: OnSend stream differs from workers=1", workers)
		}
	}
}

func envString(envs []Envelope) string {
	var b strings.Builder
	for _, e := range envs {
		fmt.Fprintf(&b, " %s->%s#%d", e.From, e.To, e.Seq)
	}
	return b.String()
}

// TestStepAllocsSteadyState pins the kernel's steady-state round cost
// at one allocation: every round buffer is recycled.
func TestStepAllocsSteadyState(t *testing.T) {
	net := buildFanNet(t, 1000, 4, 1)
	for i := 0; i < 3; i++ {
		net.Step()
	}
	if allocs := testing.AllocsPerRun(20, func() { net.Step() }); allocs > 1 {
		t.Errorf("steady-state Step allocates %.1f times, want <= 1", allocs)
	}
}
