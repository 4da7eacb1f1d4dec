package core

import (
	"math/rand"
	"slices"
	"testing"

	"damulticast/internal/ids"
	"damulticast/internal/topic"
)

// nopEnv keeps nothing it is given, so the allocation tests and the
// benchmarks below count core's own allocations and no env's.
type nopEnv struct{ rng *rand.Rand }

func (e *nopEnv) Send(ids.ProcessID, *Message)        {}
func (e *nopEnv) SendBatch([]ids.ProcessID, *Message) {}
func (e *nopEnv) Deliver(*Event)                      {}
func (e *nopEnv) Neighborhood(int) []ids.ProcessID    { return nil }
func (e *nopEnv) Rand() *rand.Rand                    { return e.rng }

// hotProcess builds a process of .a.b with 50 group mates and a full
// supertopic table that self-elects for every event (pSel = pA = 1),
// so each dissemination fans out to both groups. The seen window is
// small so that tests reach its steady state quickly.
func hotProcess(env Env) *Process {
	params := testParams()
	params.GroupSizeHint = 100
	params.G = 10000
	params.A = 3
	params.Z = 3
	params.SeenCap = 64
	p := MustNewProcess("p0", ".a.b", params, env)
	p.SetTopicTableCap(64)
	var mates []ids.ProcessID
	for i := 0; i < 50; i++ {
		mates = append(mates, ids.Indexed("m", i))
	}
	p.SeedTopicTable(mates)
	p.SeedSuperTable(".a", []ids.ProcessID{"s1", "s2", "s3"})
	return p
}

// eventFeed hands out n-event messages whose events are first seen on
// every call: the same message and events, with fresh sequence numbers.
// Reusing them is safe because nothing keeps them (nopEnv, and no
// recovery store).
type eventFeed struct {
	m   *Message
	seq uint64
}

func newEventFeed(n int, payload []byte) *eventFeed {
	evs := make([]*Event, n)
	for i := range evs {
		evs[i] = &Event{ID: ids.EventID{Origin: "pub"}, Topic: ".a.b", Payload: payload}
	}
	m := &Message{Type: MsgEventBatch, From: "m1", FromTopic: ".a.b", Dest: ".a.b", Events: evs}
	if n == 1 {
		m.Type, m.Event, m.Events = MsgEvent, evs[0], nil
	}
	return &eventFeed{m: m}
}

func (f *eventFeed) next() *Message {
	if f.m.Event != nil {
		f.seq++
		f.m.Event.ID.Seq = f.seq
	}
	for _, ev := range f.m.Events {
		f.seq++
		ev.ID.Seq = f.seq
	}
	return f.m
}

// receiveAllocs is the steady-state allocation count of one
// HandleMessage of a first-time n-event message.
func receiveAllocs(n int, payload []byte) float64 {
	p := hotProcess(&nopEnv{rng: rand.New(rand.NewSource(1))})
	feed := newEventFeed(n, payload)
	for i := 0; i < 256; i++ { // fill the seen window and grow the buffers
		p.HandleMessage(feed.next())
	}
	return testing.AllocsPerRun(200, func() { p.HandleMessage(feed.next()) })
}

// A first-time event costs one allocation, the delivered payload's
// copy: the fan-out message and the delivered event are lent.
func TestReceiveEventAllocs(t *testing.T) {
	if got := receiveAllocs(1, []byte("payload")); got > 1 {
		t.Errorf("receiving an event allocates %v, want <= 1", got)
	}
	if got := receiveAllocs(1, nil); got != 0 {
		t.Errorf("receiving a nil-payload event allocates %v, want 0", got)
	}
}

func TestEventBatchReceiveAllocs(t *testing.T) {
	if got := receiveAllocs(16, []byte("payload")); got > 16 {
		t.Errorf("receiving a 16-event batch allocates %v, want <= 16", got)
	}
}

// Publishing allocates only the *Event it returns.
func TestPublishAllocs(t *testing.T) {
	p := hotProcess(&nopEnv{rng: rand.New(rand.NewSource(1))})
	payload := []byte("payload")
	publish := func() {
		if _, err := p.Publish(payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 256; i++ {
		publish()
	}
	if got := testing.AllocsPerRun(200, publish); got != 1 {
		t.Errorf("Publish allocates %v, want 1", got)
	}
}

// batchCall is one recorded SendBatch call: the lent message's Dest at
// call time and the targets it went to.
type batchCall struct {
	dest    topic.Topic
	targets []ids.ProcessID
}

type recEnv struct {
	nopEnv
	calls []batchCall
}

func (e *recEnv) SendBatch(targets []ids.ProcessID, m *Message) {
	e.calls = append(e.calls, batchCall{dest: m.Dest, targets: slices.Clone(targets)})
}

// TestSendSegmentsDestPerSegment: the one lent message is re-stamped
// per destination group, so every SendBatch call carries the Dest of
// the group its targets are in.
func TestSendSegmentsDestPerSegment(t *testing.T) {
	groupOf := func(id ids.ProcessID) topic.Topic {
		switch id[0] {
		case 's':
			return ".a"
		case 'x':
			return ".x"
		}
		return ".a.b"
	}
	check := func(what string, calls []batchCall, wantDests ...topic.Topic) {
		t.Helper()
		var dests []topic.Topic
		for _, c := range calls {
			dests = append(dests, c.dest)
			for _, to := range c.targets {
				if g := groupOf(to); g != c.dest {
					t.Errorf("%s: target %s of group %s sent with Dest %s", what, to, g, c.dest)
				}
			}
		}
		if !slices.Equal(dests, wantDests) {
			t.Errorf("%s: SendBatch Dests = %v, want %v", what, dests, wantDests)
		}
	}

	env := &recEnv{nopEnv: nopEnv{rng: rand.New(rand.NewSource(1))}}
	p := hotProcess(env)
	if _, err := p.Publish([]byte("x")); err != nil {
		t.Fatal(err)
	}
	check("publish", env.calls, ".a", ".a.b")

	if err := p.AddExtraSuperTable(".x", []ids.ProcessID{"x1", "x2"}); err != nil {
		t.Fatal(err)
	}
	env.calls = nil
	p.Leave()
	check("leave", env.calls, ".a.b", ".a", ".x")
}

// BenchmarkProcessReceive is core's per-event receive path — RECEIVE,
// DISSEMINATE to both groups and the delivery — with an env that keeps
// nothing.
func BenchmarkProcessReceive(b *testing.B) { benchReceive(b, 1) }

// BenchmarkProcessReceiveBatch16 is the same for a 16-event batch
// frame, its re-dissemination coalesced per target.
func BenchmarkProcessReceiveBatch16(b *testing.B) { benchReceive(b, 16) }

func benchReceive(b *testing.B, n int) {
	p := hotProcess(&nopEnv{rng: rand.New(rand.NewSource(1))})
	feed := newEventFeed(n, []byte("payload"))
	b.ReportAllocs()
	for b.Loop() {
		p.HandleMessage(feed.next())
	}
}
