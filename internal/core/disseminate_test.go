package core

import (
	"fmt"
	"testing"

	"damulticast/internal/ids"
	"damulticast/internal/topic"
)

func TestPublishGossipsToFanoutTargets(t *testing.T) {
	env := newFakeEnv(1)
	params := testParams()
	params.GroupSizeHint = 100
	params.C = 5
	p := MustNewProcess("p0", ".a", params, env)
	p.SetTopicTableCap(64)
	var mates []ids.ProcessID
	for i := 0; i < 50; i++ {
		mates = append(mates, ids.ProcessID(fmt.Sprintf("m%02d", i)))
	}
	p.SeedTopicTable(mates)

	ev, err := p.Publish([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Topic != ".a" || ev.ID.Origin != "p0" {
		t.Errorf("event = %+v", ev)
	}
	sent := env.sentOfType(MsgEvent)
	want := 10 // ceil(ln(100)+5)
	if len(sent) != want {
		t.Errorf("event sends = %d, want %d", len(sent), want)
	}
	// All targets distinct and from the topic table.
	seen := map[ids.ProcessID]bool{}
	for _, s := range sent {
		if seen[s.to] {
			t.Errorf("duplicate target %s", s.to)
		}
		seen[s.to] = true
		if s.to == "p0" {
			t.Error("sent to self")
		}
	}
}

func TestPublishSequenceIncrements(t *testing.T) {
	env := newFakeEnv(1)
	p := MustNewProcess("p0", ".a", testParams(), env)
	e1, _ := p.Publish(nil)
	e2, _ := p.Publish(nil)
	if e1.ID.Seq == e2.ID.Seq {
		t.Error("sequence did not advance")
	}
}

func TestReceiveDeliversOnceAndForwards(t *testing.T) {
	env := newFakeEnv(1)
	params := testParams()
	params.GroupSizeHint = 10
	p := MustNewProcess("p0", ".a", params, env)
	p.SetTopicTableCap(16)
	p.SeedTopicTable([]ids.ProcessID{"m1", "m2", "m3", "m4", "m5", "m6", "m7", "m8", "m9"})

	ev := &Event{ID: ids.EventID{Origin: "pub", Seq: 1}, Topic: ".a", Payload: []byte("x")}
	m := &Message{Type: MsgEvent, From: "m1", FromTopic: ".a", Event: ev}
	p.HandleMessage(m)

	if len(env.delivered) != 1 {
		t.Fatalf("delivered = %d", len(env.delivered))
	}
	if got := env.delivered[0]; got.ID != ev.ID || string(got.Payload) != "x" {
		t.Errorf("delivered event = %+v", got)
	}
	forwards := len(env.sentOfType(MsgEvent))
	if forwards == 0 {
		t.Error("first reception did not forward")
	}

	// Duplicate: no new delivery, no new forwards.
	env.reset()
	p.HandleMessage(m)
	if len(env.delivered) != 0 {
		t.Error("duplicate delivered")
	}
	if len(env.sentOfType(MsgEvent)) != 0 {
		t.Error("duplicate forwarded")
	}
}

func TestDeliveredEventIsACopy(t *testing.T) {
	env := newFakeEnv(1)
	p := MustNewProcess("p0", ".a", testParams(), env)
	ev := &Event{ID: ids.EventID{Origin: "pub", Seq: 1}, Topic: ".a", Payload: []byte("abc")}
	p.HandleMessage(&Message{Type: MsgEvent, From: "m", Event: ev})
	ev.Payload[0] = 'Z'
	if env.delivered[0].Payload[0] == 'Z' {
		t.Error("delivered event aliases protocol buffer")
	}
}

func TestUpwardDisseminationRespectsPSelAndPA(t *testing.T) {
	// With G >= S, pSel = 1: the publisher always self-elects.
	// With A = Z, pA = 1: every supertable entry gets the event.
	env := newFakeEnv(1)
	params := testParams()
	params.GroupSizeHint = 10
	params.G = 10000
	params.A = 3
	params.Z = 3
	p := MustNewProcess("p0", ".a.b", params, env)
	p.SeedSuperTable(".a", []ids.ProcessID{"s1", "s2", "s3"})

	if _, err := p.Publish(nil); err != nil {
		t.Fatal(err)
	}
	ups := map[ids.ProcessID]bool{}
	for _, s := range env.sentOfType(MsgEvent) {
		ups[s.to] = true
	}
	for _, sid := range []ids.ProcessID{"s1", "s2", "s3"} {
		if !ups[sid] {
			t.Errorf("superprocess %s not reached with pSel=pA=1", sid)
		}
	}
}

func TestUpwardDisseminationDisabledWithGZero(t *testing.T) {
	env := newFakeEnv(1)
	params := testParams()
	params.G = 0 // never self-elect
	p := MustNewProcess("p0", ".a.b", params, env)
	p.SeedSuperTable(".a", []ids.ProcessID{"s1", "s2", "s3"})
	for i := 0; i < 50; i++ {
		if _, err := p.Publish(nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range env.sentOfType(MsgEvent) {
		switch s.to {
		case "s1", "s2", "s3":
			t.Fatalf("event sent upward with G=0")
		}
	}
}

func TestRootProcessNeverSendsUpward(t *testing.T) {
	env := newFakeEnv(1)
	params := testParams()
	params.G = 10000 // pSel = 1 if it had a supergroup
	p := MustNewProcess("p0", topic.Root, params, env)
	p.SeedTopicTable([]ids.ProcessID{"r1", "r2"})
	if _, err := p.Publish(nil); err != nil {
		t.Fatal(err)
	}
	for _, s := range env.sentOfType(MsgEvent) {
		if s.to != "r1" && s.to != "r2" {
			t.Errorf("root sent beyond its group: %s", s.to)
		}
	}
}

func TestPublisherIgnoresEchoOfOwnEvent(t *testing.T) {
	env := newFakeEnv(1)
	p := MustNewProcess("p0", ".a", testParams(), env)
	p.SeedTopicTable([]ids.ProcessID{"m1"})
	ev, _ := p.Publish(nil)
	env.reset()
	// The event gossips back to the publisher.
	p.HandleMessage(&Message{Type: MsgEvent, From: "m1", Event: ev})
	if len(env.delivered) != 0 {
		t.Error("publisher delivered its own event")
	}
	if len(env.sentOfType(MsgEvent)) != 0 {
		t.Error("publisher re-forwarded its own event")
	}
}

func TestOnEventNilEvent(t *testing.T) {
	env := newFakeEnv(1)
	p := MustNewProcess("p0", ".a", testParams(), env)
	p.HandleMessage(&Message{Type: MsgEvent, From: "m"}) // nil Event: ignored
	if len(env.delivered) != 0 {
		t.Error("nil event delivered")
	}
}

// Integration: a 3-level chain T2 -> T1 -> T0 with pSel=pA=1 and
// perfect channels must deliver a T2 publication to every process of
// every level (events climb group by group).
func TestEndToEndClimb(t *testing.T) {
	k := newKernel(7)
	params := testParams()
	params.G = 1 << 20 // pSel = 1
	params.A = 3       // pA = 1 with Z=3
	params.Z = 3

	chain, err := topic.Chain(2, "l") // [.l1, .l1.l2]
	if err != nil {
		t.Fatal(err)
	}
	t2 := chain[1] // .l1.l2
	t1 := chain[0] // .l1
	t0 := topic.Root

	mk := func(tp topic.Topic, n int, hint int) []*Process {
		p := params
		p.GroupSizeHint = hint
		var out []*Process
		for i := 0; i < n; i++ {
			id := ids.ProcessID(fmt.Sprintf("%s/%d", tp, i))
			out = append(out, k.add(id, tp, p))
		}
		return out
	}
	g2 := mk(t2, 20, 20)
	g1 := mk(t1, 10, 10)
	g0 := mk(t0, 5, 5)

	seedGroup := func(g []*Process) {
		ids_ := make([]ids.ProcessID, len(g))
		for i, p := range g {
			ids_[i] = p.ID()
		}
		for _, p := range g {
			p.SetTopicTableCap(len(g))
			p.SeedTopicTable(ids_)
		}
	}
	seedGroup(g2)
	seedGroup(g1)
	seedGroup(g0)
	for _, p := range g2 {
		p.SeedSuperTable(t1, []ids.ProcessID{g1[0].ID(), g1[1].ID(), g1[2].ID()})
	}
	for _, p := range g1 {
		p.SeedSuperTable(t0, []ids.ProcessID{g0[0].ID(), g0[1].ID(), g0[2].ID()})
	}

	ev, err := g2[0].Publish([]byte("climb"))
	if err != nil {
		t.Fatal(err)
	}
	k.pump(1 << 20)

	for _, g := range [][]*Process{g2, g1, g0} {
		for _, p := range g {
			if p == g2[0] {
				continue // publisher does not self-deliver
			}
			got := k.delivered[p.ID()]
			if len(got) != 1 || got[0].ID != ev.ID {
				t.Fatalf("process %s (topic %s) deliveries = %v", p.ID(), p.Topic(), got)
			}
		}
	}
}

// No parasite messages: processes of sibling/sub branches must never
// receive an event published on an unrelated branch.
func TestNoParasiteDeliveries(t *testing.T) {
	k := newKernel(11)
	params := testParams()
	params.G = 1 << 20
	params.A = 3
	params.Z = 3
	params.GroupSizeHint = 6

	tSports := topic.MustParse(".news.sports")
	tPolitics := topic.MustParse(".news.politics")
	tNews := topic.MustParse(".news")

	mk := func(tp topic.Topic, n int) []*Process {
		var out []*Process
		for i := 0; i < n; i++ {
			out = append(out, k.add(ids.ProcessID(fmt.Sprintf("%s/%d", tp, i)), tp, params))
		}
		return out
	}
	sports := mk(tSports, 6)
	politics := mk(tPolitics, 6)
	news := mk(tNews, 6)

	seed := func(g []*Process) {
		var all []ids.ProcessID
		for _, p := range g {
			all = append(all, p.ID())
		}
		for _, p := range g {
			p.SetTopicTableCap(8)
			p.SeedTopicTable(all)
		}
	}
	seed(sports)
	seed(politics)
	seed(news)
	sup := []ids.ProcessID{news[0].ID(), news[1].ID(), news[2].ID()}
	for _, p := range sports {
		p.SeedSuperTable(tNews, sup)
	}
	for _, p := range politics {
		p.SeedSuperTable(tNews, sup)
	}

	if _, err := sports[0].Publish([]byte("goal")); err != nil {
		t.Fatal(err)
	}
	k.pump(1 << 20)

	// Politics processes must receive nothing: the event flows up to
	// .news but never sideways/down into .news.politics.
	for _, p := range politics {
		if got := k.delivered[p.ID()]; len(got) != 0 {
			t.Errorf("parasite delivery at %s: %v", p.ID(), got)
		}
	}
	// All .news processes receive it (their topic includes .news.sports).
	for _, p := range news {
		if got := k.delivered[p.ID()]; len(got) != 1 {
			t.Errorf("news process %s deliveries = %d", p.ID(), len(got))
		}
	}
}

// elect runs once per disseminated event. Once its batch buffers have
// grown to the view sizes it must not allocate: the supertopic tables
// are walked by index and the gossip sample is drawn into the batch.
func TestElectAllocsNothingAtSteadyState(t *testing.T) {
	p := hotProcess(newFakeEnv(1)) // pSel = 1: every election walks every supertopic table
	if err := p.AddExtraSuperTable(".x", []ids.ProcessID{"x1", "x2", "x3"}); err != nil {
		t.Fatal(err)
	}
	elect := func() {
		targets, segs := p.elect()
		p.batch, p.segs = targets[:0], segs[:0]
	}
	elect()
	if allocs := testing.AllocsPerRun(200, elect); allocs != 0 {
		t.Errorf("elect allocates %v per call at steady state, want 0", allocs)
	}
	targets, segs := p.elect()
	if want := 3 + 3 + p.fanout(); len(targets) != want || len(segs) != 3 {
		t.Errorf("elect = %d targets in %d segments, want %d in 3", len(targets), len(segs), want)
	}
}
