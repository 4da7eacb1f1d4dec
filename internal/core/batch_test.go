package core

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"damulticast/internal/ids"
	"damulticast/internal/topic"
)

// election is one (target, destination group, event) triple a
// dissemination elected, independent of how events were packed into
// frames.
type election struct {
	to   ids.ProcessID
	dest string
	ev   string
}

// elections expands an env's sent messages (single events and batch
// frames alike) into sorted election triples.
func elections(t *testing.T, sent []sentMsg) []election {
	t.Helper()
	var out []election
	for _, s := range sent {
		switch s.msg.Type {
		case MsgEvent:
			out = append(out, election{to: s.to, dest: string(s.msg.Dest), ev: s.msg.Event.ID.String()})
		case MsgEventBatch:
			if len(s.msg.Events) < 2 {
				t.Errorf("batch frame to %s carries %d events; singletons must use MsgEvent", s.to, len(s.msg.Events))
			}
			for _, ev := range s.msg.Events {
				out = append(out, election{to: s.to, dest: string(s.msg.Dest), ev: ev.ID.String()})
			}
		default:
			t.Fatalf("unexpected %s frame", s.msg.Type)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.to != b.to {
			return a.to < b.to
		}
		if a.dest != b.dest {
			return a.dest < b.dest
		}
		return a.ev < b.ev
	})
	return out
}

// TestPublishBatchMatchesSequentialElections pins the RNG contract of
// the batched path: PublishBatch draws the random stream exactly as
// the same sequence of Publish calls would, so the elected (target,
// group, event) triples are identical — only the framing differs. The
// cases cover every branch of the election: intra-group gossip only,
// plus the upward election to a supertopic table, plus a §VIII extra
// supertopic table. G = 6 over a 7-process group makes pSel = 6/7, so
// most events elect themselves upward.
func TestPublishBatchMatchesSequentialElections(t *testing.T) {
	contacts := []ids.ProcessID{"m1", "m2", "m3", "m4", "m5", "m6"}
	cases := []struct {
		name  string
		super []ids.ProcessID
		extra []ids.ProcessID
	}{
		{name: "topic-table"},
		{name: "super-table", super: []ids.ProcessID{"s1", "s2", "s3"}},
		{name: "extra-super-table", super: []ids.ProcessID{"s1", "s2", "s3"}, extra: []ids.ProcessID{"x1", "x2", "x3"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() (*Process, *fakeEnv) {
				env := newFakeEnv(42)
				params := testParams()
				if tc.super != nil {
					params.G = 6
				}
				p := MustNewProcess("p", ".a", params, env)
				p.SeedTopicTable(contacts)
				if tc.super != nil {
					p.SeedSuperTable(topic.Root, tc.super)
				}
				if tc.extra != nil {
					if err := p.AddExtraSuperTable(".x", tc.extra); err != nil {
						t.Fatal(err)
					}
				}
				return p, env
			}
			checkBatchMatchesSequential(t, build, tc.super != nil, tc.extra != nil)
		})
	}
}

func checkBatchMatchesSequential(t *testing.T, build func() (*Process, *fakeEnv), wantUp, wantExtra bool) {
	t.Helper()
	payloads := [][]byte{[]byte("e0"), []byte("e1"), []byte("e2"), []byte("e3")}

	seqProc, seqEnv := build()
	for _, pl := range payloads {
		if _, err := seqProc.Publish(pl); err != nil {
			t.Fatal(err)
		}
	}

	batchProc, batchEnv := build()
	evs, err := batchProc.PublishBatch(payloads)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(payloads) {
		t.Fatalf("PublishBatch returned %d events, want %d", len(evs), len(payloads))
	}
	for i, ev := range evs {
		if want := fmt.Sprintf("p#%d", i+1); ev.ID.String() != want {
			t.Errorf("event %d id = %s, want %s", i, ev.ID, want)
		}
	}

	seq, batch := elections(t, seqEnv.sent), elections(t, batchEnv.sent)
	if len(seq) != len(batch) {
		t.Fatalf("election counts differ: sequential %d, batched %d", len(seq), len(batch))
	}
	for i := range seq {
		if seq[i] != batch[i] {
			t.Fatalf("election %d differs: sequential %+v, batched %+v", i, seq[i], batch[i])
		}
	}
	// Each branch under test must actually have elected something, or
	// the comparison above says nothing about it.
	dests := make(map[string]int)
	for _, e := range seq {
		dests[e.dest]++
	}
	if wantUp && dests[string(topic.Root)] == 0 {
		t.Errorf("no upward election to the supertopic table: %v", dests)
	}
	if wantExtra && dests[".x"] == 0 {
		t.Errorf("no election to the extra supertopic table: %v", dests)
	}
	// The whole point: the batched path needs fewer frames whenever any
	// target was elected for more than one event (with fanout ln(6)+5
	// over 6 contacts and 4 events, some always is).
	if len(batchEnv.sent) >= len(seqEnv.sent) {
		t.Errorf("batched path sent %d frames, sequential %d — no coalescing happened",
			len(batchEnv.sent), len(seqEnv.sent))
	}
	var sawBatch bool
	for _, s := range batchEnv.sent {
		if s.msg.Type == MsgEventBatch {
			sawBatch = true
		}
	}
	if !sawBatch {
		t.Error("no MsgEventBatch frame emitted")
	}
	// Coalescing contract: at most one frame per (target, dest) pair.
	type pair struct {
		to   ids.ProcessID
		dest string
	}
	seen := make(map[pair]bool)
	for _, s := range batchEnv.sent {
		k := pair{to: s.to, dest: string(s.msg.Dest)}
		if seen[k] {
			t.Errorf("two frames for pair %+v", k)
		}
		seen[k] = true
	}
}

// TestOnEventBatchDeliversAndForwards: receiving a batch frame
// delivers each first-time event once, re-disseminates them (also
// coalesced), and silently skips duplicates — exactly like the same
// events arriving one frame each.
func TestOnEventBatchDeliversAndForwards(t *testing.T) {
	env := newFakeEnv(7)
	p := MustNewProcess("p", ".a", testParams(), env)
	p.SeedTopicTable([]ids.ProcessID{"m1", "m2", "m3"})

	evA := &Event{ID: ids.EventID{Origin: "q", Seq: 1}, Topic: ".a", Payload: []byte("a")}
	evB := &Event{ID: ids.EventID{Origin: "q", Seq: 2}, Topic: ".a", Payload: []byte("b")}
	batch := &Message{Type: MsgEventBatch, From: "q", FromTopic: ".a", Dest: ".a", Events: []*Event{evA, evB}}
	p.HandleMessage(batch)
	if len(env.delivered) != 2 {
		t.Fatalf("delivered %d events, want 2", len(env.delivered))
	}
	if env.delivered[0].ID != evA.ID || env.delivered[1].ID != evB.ID {
		t.Errorf("delivered ids %v %v", env.delivered[0].ID, env.delivered[1].ID)
	}
	// Delivered events are clones, never the inbound structs (the hub
	// may decode into reusable scratch).
	if env.delivered[0] == evA {
		t.Error("delivered event aliases the inbound message")
	}
	forwarded := len(env.sent)
	if forwarded == 0 {
		t.Error("first-time batch events were not re-disseminated")
	}

	// The same batch again, plus one fresh event: only the fresh one
	// acts.
	env.reset()
	evC := &Event{ID: ids.EventID{Origin: "q", Seq: 3}, Topic: ".a", Payload: []byte("c")}
	p.HandleMessage(&Message{Type: MsgEventBatch, From: "q", FromTopic: ".a", Dest: ".a", Events: []*Event{evA, nil, evB, evC}})
	if len(env.delivered) != 1 || env.delivered[0].ID != evC.ID {
		t.Fatalf("re-handled batch delivered %v, want just %v", env.delivered, evC.ID)
	}
}

// TestPublishBatchLifecycle: empty batches are a no-op, and a stopped
// process refuses batches like single publishes.
func TestPublishBatchLifecycle(t *testing.T) {
	env := newFakeEnv(1)
	p := MustNewProcess("p", ".a", testParams(), env)
	evs, err := p.PublishBatch(nil)
	if err != nil || evs != nil {
		t.Errorf("empty batch = (%v, %v), want (nil, nil)", evs, err)
	}
	p.Leave()
	if _, err := p.PublishBatch([][]byte{[]byte("x")}); !errors.Is(err, ErrStopped) {
		t.Errorf("stopped PublishBatch err = %v, want ErrStopped", err)
	}
}

// TestRetainsEvents: only processes with a recovery store retain event
// pointers past HandleMessage (the hub's clone gate keys off this).
func TestRetainsEvents(t *testing.T) {
	env := newFakeEnv(1)
	if p := MustNewProcess("p", ".a", testParams(), env); p.RetainsEvents() {
		t.Error("process without recovery store claims to retain events")
	}
	params := testParams()
	params.RecoverPeriod = 4
	if p := MustNewProcess("q", ".a", params, newFakeEnv(2)); !p.RetainsEvents() {
		t.Error("recovery-enabled process does not claim to retain events")
	}
}

// TestEventBatchPropagatesThroughGroup: a batch published into a
// connected group reaches every member intact, across gossip hops
// (batches re-disseminate as batches, not one frame per event).
func TestEventBatchPropagatesThroughGroup(t *testing.T) {
	k := newKernel(3)
	params := testParams()
	ps := make([]*Process, 0, 6)
	idsList := make([]ids.ProcessID, 0, 6)
	for i := 0; i < 6; i++ {
		id := ids.ProcessID(fmt.Sprintf("n%d", i))
		idsList = append(idsList, id)
		ps = append(ps, k.add(id, ".g", params))
	}
	for _, p := range ps {
		p.SeedTopicTable(idsList)
	}
	payloads := [][]byte{[]byte("p0"), []byte("p1"), []byte("p2"), []byte("p3"), []byte("p4")}
	if _, err := ps[0].PublishBatch(payloads); err != nil {
		t.Fatal(err)
	}
	k.pump(10000)
	for _, id := range idsList[1:] {
		got := make(map[string]bool)
		for _, ev := range k.delivered[id] {
			got[string(ev.Payload)] = true
		}
		if len(got) != len(payloads) {
			t.Errorf("%s delivered %d distinct events, want %d", id, len(got), len(payloads))
		}
	}
}
