package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"damulticast/internal/ids"
	"damulticast/internal/invariant"
)

// recoverParams returns params with every periodic task disabled
// except anti-entropy recovery, so ticks produce recovery traffic
// alone.
func recoverParams() Params {
	return Params{
		B: 3, C: 1, G: 5, A: 1, Z: 3,
		GroupSizeHint:     4,
		RecoverPeriod:     2,
		RecoverFanout:     1,
		RecoverStoreCap:   8,
		RecoverMaxAge:     100,
		RecoverDigestBits: 10,
	}
}

func TestEventStoreBounds(t *testing.T) {
	s := newEventStore(3)
	for i := uint64(0); i < 10; i++ {
		ev := &Event{ID: ids.EventID{Origin: "p", Seq: i}, Topic: ".t"}
		s.Add(ev, int(i))
		if s.Len() > 3 {
			t.Fatalf("store grew to %d entries past cap 3", s.Len())
		}
	}
	// FIFO: only the three newest survive.
	for i := uint64(0); i < 7; i++ {
		if _, ok := s.Get(ids.EventID{Origin: "p", Seq: i}); ok {
			t.Errorf("event %d not evicted", i)
		}
	}
	ids9 := s.AppendIDs(nil, 4096)
	if len(ids9) != 3 || ids9[0].Seq != 7 || ids9[2].Seq != 9 {
		t.Errorf("AppendIDs = %v, want seqs 7..9 in insertion order", ids9)
	}
	// A cap smaller than the store keeps only the newest ids.
	if capped := s.AppendIDs(nil, 2); len(capped) != 2 || capped[0].Seq != 8 || capped[1].Seq != 9 {
		t.Errorf("AppendIDs capped = %v, want seqs 8..9", capped)
	}
	// Duplicate adds are ignored.
	if s.Add(&Event{ID: ids.EventID{Origin: "p", Seq: 9}}, 99); s.Len() != 3 {
		t.Errorf("duplicate add changed Len to %d", s.Len())
	}
}

func TestEventStoreGCByAge(t *testing.T) {
	s := newEventStore(10)
	for i := uint64(0); i < 4; i++ {
		s.Add(&Event{ID: ids.EventID{Origin: "p", Seq: i}}, int(i))
	}
	// At tick 7 with maxAge 4, entries from ticks 0-2 are stale.
	if gone := s.GC(7, 4); gone != 3 {
		t.Errorf("GC evicted %d, want 3", gone)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d after GC, want 1", s.Len())
	}
	if _, ok := s.Get(ids.EventID{Origin: "p", Seq: 3}); !ok {
		t.Error("young entry GC'd")
	}
	if gone := s.GC(100, 4); gone != 1 || s.Len() != 0 {
		t.Errorf("final GC = %d (len %d), want 1 (0)", gone, s.Len())
	}
}

// TestEventStoreQueueCompaction drives enough traffic through a tiny
// store that its ring wraps many times; the ring never outgrows cap
// slots and holds exactly the newest entries.
func TestEventStoreQueueCompaction(t *testing.T) {
	s := newEventStore(4)
	for i := uint64(0); i < 1000; i++ {
		s.Add(&Event{ID: ids.EventID{Origin: "p", Seq: i}}, int(i))
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.AppendIDs(nil, 4096); len(got) != 4 || got[0].Seq != 996 || got[3].Seq != 999 {
		t.Errorf("live window = %v, want seqs 996..999", got)
	}
	if len(s.ring) > s.Cap() || cap(s.ring) > s.Cap() {
		t.Errorf("ring grew to %d/%d slots for a cap-4 store", len(s.ring), cap(s.ring))
	}
}

// fifoStore is the reference event store: a slice of (event, tick) in
// insertion order, scanned linearly.
type fifoStore struct {
	cap  int
	refs []storedRef
}

func (f *fifoStore) find(id ids.EventID) int {
	for i, r := range f.refs {
		if r.ev.ID == id {
			return i
		}
	}
	return -1
}

func (f *fifoStore) add(ev *Event, tick int) int {
	if f.find(ev.ID) >= 0 {
		return 0
	}
	evicted := 0
	if len(f.refs) == f.cap {
		f.refs = f.refs[1:]
		evicted = 1
	}
	f.refs = append(f.refs, storedRef{ev: ev, tick: tick})
	return evicted
}

func (f *fifoStore) gc(now, maxAge int) int {
	n := 0
	for len(f.refs) > 0 && now-f.refs[0].tick > maxAge {
		f.refs = f.refs[1:]
		n++
	}
	return n
}

// TestEventStoreMatchesFIFO: the ring-indexed store answers Add, Get,
// GC and AppendIDs exactly like a plain FIFO — same return values, same
// events, same insertion order — under random traffic whose ids recur
// after capacity eviction and after age GC, across the ring's growth.
func TestEventStoreMatchesFIFO(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 16, 1024} {
		r := rand.New(rand.NewSource(int64(capacity)))
		s := newEventStore(capacity)
		ref := &fifoStore{cap: capacity}
		events := make([]*Event, 3*capacity+2)
		for i := range events {
			events[i] = &Event{ID: ids.EventID{Origin: "p", Seq: uint64(i)}}
		}
		tick := 0
		for step := 0; step < 50_000; step++ {
			ev := events[r.Intn(len(events))]
			switch op := r.Intn(16); {
			case op < 10:
				if got, want := s.Add(ev, tick), ref.add(ev, tick); got != want {
					t.Fatalf("cap %d step %d: Add(%v) evicted %d, FIFO %d", capacity, step, ev.ID, got, want)
				}
			case op < 13:
				got, ok := s.Get(ev.ID)
				want := ref.find(ev.ID)
				if ok != (want >= 0) || (ok && got != ev) {
					t.Fatalf("cap %d step %d: Get(%v) = %v %v, FIFO index %d", capacity, step, ev.ID, got, ok, want)
				}
			case op < 14:
				maxAge := r.Intn(capacity + 2)
				if got, want := s.GC(tick, maxAge), ref.gc(tick, maxAge); got != want {
					t.Fatalf("cap %d step %d: GC(%d, %d) = %d, FIFO %d", capacity, step, tick, maxAge, got, want)
				}
			case op < 15:
				tick++
			default:
				limit := r.Intn(capacity + 2)
				got := s.AppendIDs(nil, limit)
				var want []ids.EventID
				for _, rr := range ref.refs[len(ref.refs)-min(limit, len(ref.refs)):] {
					want = append(want, rr.ev.ID)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("cap %d step %d: AppendIDs(%d) = %v, FIFO %v", capacity, step, limit, got, want)
				}
			}
			if s.Len() != len(ref.refs) {
				t.Fatalf("cap %d step %d: Len = %d, FIFO %d", capacity, step, s.Len(), len(ref.refs))
			}
		}
	}
}

// TestEventStoreSteadyStorage: once the ring has reached cap and wrapped,
// a million further events, each with a fresh id, allocate nothing in
// the store and leave the heap where it was.
func TestEventStoreSteadyStorage(t *testing.T) {
	const capacity = 512 // the RecoverStoreCap default
	s := newEventStore(capacity)
	// Event structs come from a pool bigger than the store and get a
	// fresh id on reuse (their last use has been evicted by then), so
	// the measurement sees only the store's own allocations.
	events := make([]Event, 4*capacity)
	next := 0
	push := func() {
		ev := &events[next%len(events)]
		ev.ID = ids.EventID{Origin: "p", Seq: uint64(next)}
		s.Add(ev, next)
		next++
	}
	for range 4 * capacity {
		push()
	}
	invariant.SteadyStorage(t, 1_000_000, push)
	if s.Len() != capacity || len(s.ring) != capacity {
		t.Errorf("Len %d, ring %d slots, want both %d", s.Len(), len(s.ring), capacity)
	}
}

func BenchmarkEventStoreAdd(b *testing.B) {
	const capacity = 512
	s := newEventStore(capacity)
	events := make([]Event, 4*capacity)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := &events[i%len(events)]
		ev.ID = ids.EventID{Origin: "p", Seq: uint64(i)}
		s.Add(ev, i)
	}
}

// TestRecoverDigestExchange walks one full anti-entropy exchange by
// hand: A holds an event B missed; B holds one A missed. A's
// wave-opening digest (TTL 1) must trigger B's push of the event A
// lacked AND B's counter-digest (TTL 0), which in turn makes A push
// the event B lacked — both directions repaired in one exchange, with
// no third digest.
func TestRecoverDigestExchange(t *testing.T) {
	params := recoverParams()
	envA, envB := newFakeEnv(1), newFakeEnv(2)
	A := MustNewProcess("A", ".t", params, envA)
	B := MustNewProcess("B", ".t", params, envB)
	A.SeedTopicTable([]ids.ProcessID{"B"})
	B.SeedTopicTable([]ids.ProcessID{"A"})

	evA, err := A.Publish([]byte("from-A"))
	if err != nil {
		t.Fatal(err)
	}
	evB, err := B.Publish([]byte("from-B"))
	if err != nil {
		t.Fatal(err)
	}
	envA.reset()
	envB.reset()

	// Two ticks reach RecoverPeriod: A gossips its digest.
	A.Tick()
	A.Tick()
	digests := envA.sentOfType(MsgDigest)
	if len(digests) != 1 || digests[0].to != "B" {
		t.Fatalf("recovery wave sent %d digests (%v), want 1 to B", len(digests), digests)
	}
	wave := digests[0].msg
	if wave.TTL != 1 {
		t.Fatalf("wave digest TTL = %d, want 1 (budget for one counter-digest)", wave.TTL)
	}
	if len(wave.BloomBits) == 0 || !bloomHas(wave.BloomBits, wave.BloomK, wave.BloomSeed, evA.ID) {
		t.Fatalf("wave digest does not contain the stored event %v", evA.ID)
	}

	// B answers: push evB (absent from A's filter) and counter-digest.
	B.HandleMessage(wave)
	ans := envB.sentOfType(MsgDigestAns)
	if len(ans) != 1 || ans[0].to != "A" || len(ans[0].msg.Events) != 1 || ans[0].msg.Events[0].ID != evB.ID {
		t.Fatalf("digest answer = %+v, want one push of %v to A", ans, evB.ID)
	}
	counters := envB.sentOfType(MsgDigest)
	if len(counters) != 1 || counters[0].to != "A" || counters[0].msg.TTL != 0 {
		t.Fatalf("counter-digest = %+v, want one TTL-0 digest to A", counters)
	}

	// A folds the push in (delivery + stats), then serves the
	// counter-digest: push evA, suppress evB (the filter rightly claims
	// B holds it), and send no further digest — the exchange terminates.
	envA.reset()
	A.HandleMessage(ans[0].msg)
	if len(envA.delivered) != 1 || envA.delivered[0].ID != evB.ID {
		t.Fatalf("A delivered %v, want [%v]", envA.delivered, evB.ID)
	}
	if st := A.RecoveryStats(); st.Recovered != 1 {
		t.Errorf("A recovered = %d, want 1", st.Recovered)
	}
	A.HandleMessage(counters[0].msg)
	served := envA.sentOfType(MsgDigestAns)
	if len(served) != 1 || len(served[0].msg.Events) != 1 || served[0].msg.Events[0].ID != evA.ID {
		t.Fatalf("served answer = %+v, want one push of %v", served, evA.ID)
	}
	if extra := envA.sentOfType(MsgDigest); len(extra) != 0 {
		t.Fatalf("TTL-0 counter-digest provoked further digests: %v", extra)
	}
	if st := A.RecoveryStats(); st.Suppressed != 1 {
		t.Errorf("A suppressed = %d, want 1 (evB is in B's own filter)", st.Suppressed)
	}

	// B folds the served answer in: delivery, stats, re-dissemination.
	envB.reset()
	B.HandleMessage(served[0].msg)
	if len(envB.delivered) != 1 || envB.delivered[0].ID != evA.ID {
		t.Fatalf("B delivered %v, want [%v]", envB.delivered, evA.ID)
	}
	if st := B.RecoveryStats(); st.Recovered != 1 {
		t.Errorf("B recovered = %d, want 1", st.Recovered)
	}
	if gossip := envB.sentOfType(MsgEvent); len(gossip) == 0 {
		t.Error("recovered event was not re-disseminated")
	}

	// Replayed answers are duplicates: no double delivery.
	envB.reset()
	B.HandleMessage(served[0].msg)
	if len(envB.delivered) != 0 {
		t.Errorf("duplicate recovery delivered again: %v", envB.delivered)
	}
}

// TestRecoverEmptyDigestInvitesBacklog: the empty (nil-filter) digest
// of a process that missed everything makes a peer push its whole
// store, budget-bounded.
func TestRecoverEmptyDigestInvitesBacklog(t *testing.T) {
	params := recoverParams()
	env := newFakeEnv(9)
	p := MustNewProcess("B", ".t", params, env)
	for i := 0; i < 5; i++ {
		if _, err := p.Publish([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	env.reset()
	p.HandleMessage(&Message{Type: MsgDigest, From: "A", FromTopic: ".t", Dest: ".t", TTL: 1})
	ans := env.sentOfType(MsgDigestAns)
	if len(ans) != 1 || len(ans[0].msg.Events) != 5 {
		t.Fatalf("empty digest answered with %+v, want all 5 stored events", ans)
	}
	if st := p.RecoveryStats(); st.Suppressed != 0 {
		t.Errorf("empty digest suppressed %d pushes", st.Suppressed)
	}
}

// TestRecoverRestoresEvictedStoreEntry: a pushed duplicate of an event
// that is seen but no longer stored must be re-stored, so the next
// digest advertises it and peers stop re-pushing its payload every
// wave.
func TestRecoverRestoresEvictedStoreEntry(t *testing.T) {
	params := recoverParams()
	params.RecoverStoreCap = 1
	env := newFakeEnv(6)
	p := MustNewProcess("A", ".t", params, env)
	ev1, err := p.Publish([]byte("one"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Publish([]byte("two")); err != nil {
		t.Fatal(err) // cap 1: evicts ev1's store entry, ev1 stays seen
	}
	if _, held := p.store.Get(ev1.ID); held {
		t.Fatal("ev1 still stored; eviction setup broken")
	}
	p.HandleMessage(&Message{
		Type: MsgDigestAns, From: "B", FromTopic: ".t",
		Events: []*Event{ev1},
	})
	if _, held := p.store.Get(ev1.ID); !held {
		t.Error("pushed duplicate of a seen event was not re-stored")
	}
	// Publish does not self-deliver, and the duplicate push must not
	// deliver either.
	if len(env.delivered) != 0 {
		t.Errorf("duplicate push re-delivered: %d deliveries", len(env.delivered))
	}
	if st := p.RecoveryStats(); st.Recovered != 0 {
		t.Errorf("duplicate push counted as recovered: %+v", st)
	}
}

// TestRecoverIgnoresUnlinkedGroups: recovery messages from a group that
// is neither our own nor (with cross-group recovery on) an ancestor or
// descendant are dropped, matching the gossip they repair.
func TestRecoverIgnoresUnlinkedGroups(t *testing.T) {
	for _, cross := range []bool{false, true} {
		params := recoverParams()
		if cross {
			params.CrossRecoverPeriod = 2
		}
		env := newFakeEnv(3)
		p := MustNewProcess("A", ".t", params, env)
		if _, err := p.Publish([]byte("x")); err != nil {
			t.Fatal(err)
		}
		env.reset()
		p.HandleMessage(&Message{Type: MsgDigest, From: "evil", FromTopic: ".other", TTL: 1})
		p.HandleMessage(&Message{Type: MsgDigestAns, From: "evil", FromTopic: ".other",
			Events: []*Event{{ID: ids.EventID{Origin: "evil", Seq: 1}, Topic: ".t"}}})
		if len(env.sent) != 0 || len(env.delivered) != 0 {
			t.Errorf("cross=%v: unlinked-group recovery honored: sent %v delivered %v",
				cross, env.sent, env.delivered)
		}
		// Without cross-group recovery even a genuine subtopic is
		// unlinked.
		if !cross {
			p.HandleMessage(&Message{Type: MsgDigest, From: "child", FromTopic: ".t.sub", TTL: 1})
			if len(env.sent) != 0 {
				t.Errorf("intra-only recovery answered a subgroup digest: %v", env.sent)
			}
		}
	}
}

// TestRecoverAnswerFiltersByTopicInclusion: a digest from an ancestor
// group must never be answered with events of sibling subtopics the
// ancestor holds but the descendant's own group is not entitled to —
// and the receiving side independently drops such events. Both guards
// keep the parasite invariant across cross-group recovery.
func TestRecoverAnswerFiltersByTopicInclusion(t *testing.T) {
	params := recoverParams()
	params.CrossRecoverPeriod = 2
	env := newFakeEnv(7)
	parent := MustNewProcess("P", ".a", params, env)
	// The parent's store: one event of the child's topic (flowed up),
	// one of the parent's own topic, one of a sibling subtopic.
	for _, ev := range []*Event{
		{ID: ids.EventID{Origin: "c1", Seq: 1}, Topic: ".a.b", Payload: []byte("child's")},
		{ID: ids.EventID{Origin: "p1", Seq: 1}, Topic: ".a", Payload: []byte("parent's")},
		{ID: ids.EventID{Origin: "s1", Seq: 1}, Topic: ".a.c", Payload: []byte("sibling's")},
	} {
		parent.HandleMessage(&Message{Type: MsgEvent, From: "feeder", FromTopic: ".a", Dest: ".a", Event: ev})
	}
	if parent.EventStoreLen() != 3 {
		t.Fatalf("store holds %d events, want 3", parent.EventStoreLen())
	}
	env.reset()
	// An empty digest from a .a.b subscriber: only the .a.b event may
	// be pushed down.
	parent.HandleMessage(&Message{Type: MsgDigest, From: "child", FromTopic: ".a.b", TTL: 0})
	ans := env.sentOfType(MsgDigestAns)
	if len(ans) != 1 || len(ans[0].msg.Events) != 1 || ans[0].msg.Events[0].Topic != ".a.b" {
		t.Fatalf("downward answer = %+v, want exactly the .a.b event", ans)
	}
	if ans[0].msg.Dest != ".a.b" {
		t.Errorf("downward answer Dest = %q, want .a.b", ans[0].msg.Dest)
	}

	// Receiver-side guard: a child fed an out-of-subscription event via
	// a digest answer must drop it.
	childEnv := newFakeEnv(8)
	child := MustNewProcess("C", ".a.b", params, childEnv)
	child.HandleMessage(&Message{Type: MsgDigestAns, From: "P", FromTopic: ".a",
		Events: []*Event{{ID: ids.EventID{Origin: "s1", Seq: 1}, Topic: ".a.c"}}})
	if len(childEnv.delivered) != 0 {
		t.Errorf("child delivered a parasite event: %v", childEnv.delivered)
	}
	if st := child.RecoveryStats(); st.Recovered != 0 {
		t.Errorf("parasite push counted as recovered: %+v", st)
	}
}

// TestCrossRecoverClimbsHierarchy: a child process whose supergroup
// table names a parent contact re-ignites the parent through the
// cross-group wave — the parent holds zero copies, the child's digest
// invites the parent's empty counter-digest, and the child's push
// delivers the event one level up.
func TestCrossRecoverClimbsHierarchy(t *testing.T) {
	params := recoverParams()
	params.CrossRecoverPeriod = 1
	parentEnv, childEnv := newFakeEnv(10), newFakeEnv(11)
	parent := MustNewProcess("P", ".a", params, parentEnv)
	child := MustNewProcess("C", ".a.b", params, childEnv)
	child.SeedSuperTable(".a", []ids.ProcessID{"P"})

	ev, err := child.Publish([]byte("deep news"))
	if err != nil {
		t.Fatal(err)
	}
	childEnv.reset()

	child.Tick() // cross period 1: the upward digest goes out
	ups := childEnv.sentOfType(MsgDigest)
	if len(ups) == 0 || ups[len(ups)-1].to != "P" {
		t.Fatalf("cross wave sent %v, want a digest to P", ups)
	}
	up := ups[len(ups)-1].msg
	if up.Dest != ".a" || up.FromTopic != ".a.b" || up.TTL != 1 {
		t.Fatalf("upward digest = %+v, want Dest .a FromTopic .a.b TTL 1", up)
	}

	parent.HandleMessage(up)
	if pushes := parentEnv.sentOfType(MsgDigestAns); len(pushes) != 0 {
		t.Fatalf("empty parent pushed %v", pushes)
	}
	counters := parentEnv.sentOfType(MsgDigest)
	if len(counters) != 1 || counters[0].to != "C" || counters[0].msg.Dest != ".a.b" {
		t.Fatalf("parent counter-digest = %+v, want one to C with Dest .a.b", counters)
	}

	childEnv.reset()
	child.HandleMessage(counters[0].msg)
	pushes := childEnv.sentOfType(MsgDigestAns)
	if len(pushes) != 1 || pushes[0].to != "P" || len(pushes[0].msg.Events) != 1 || pushes[0].msg.Events[0].ID != ev.ID {
		t.Fatalf("child push = %+v, want %v to P", pushes, ev.ID)
	}

	parent.HandleMessage(pushes[0].msg)
	if len(parentEnv.delivered) != 1 || parentEnv.delivered[0].ID != ev.ID {
		t.Fatalf("parent delivered %v, want [%v]", parentEnv.delivered, ev.ID)
	}
	if st := parent.RecoveryStats(); st.Recovered != 1 {
		t.Errorf("parent recovered = %d, want 1", st.Recovered)
	}
	// The child's inbound traffic from the parent must NOT be learned
	// as a subgroup contact (the parent is above, not below).
	if got := child.SubContacts(); len(got) != 0 {
		t.Errorf("child learned %v as subgroup contacts", got)
	}
	// The parent learned the child from its traffic, enabling the
	// downward direction of later waves.
	if got := parent.SubContacts(); len(got) != 1 || got[0] != "C" {
		t.Errorf("parent subgroup contacts = %v, want [C]", got)
	}
}

// TestCrossRecoverDescendsToLearnedContacts: the downward wave digests
// to contacts learned from inbound subgroup traffic, restocking a child
// that lost everything — with only the events its topic includes.
func TestCrossRecoverDescendsToLearnedContacts(t *testing.T) {
	params := recoverParams()
	params.CrossRecoverPeriod = 1
	parentEnv, childEnv := newFakeEnv(12), newFakeEnv(13)
	parent := MustNewProcess("P", ".a", params, parentEnv)
	child := MustNewProcess("C", ".a.b", params, childEnv)

	// The parent holds a child-topic event (flowed up earlier) and an
	// own-topic event; it learned C from a ping.
	deepEv := &Event{ID: ids.EventID{Origin: "x", Seq: 1}, Topic: ".a.b", Payload: []byte("deep")}
	parent.HandleMessage(&Message{Type: MsgEvent, From: "relay", FromTopic: ".a", Dest: ".a", Event: deepEv})
	if _, err := parent.Publish([]byte("broad")); err != nil {
		t.Fatal(err)
	}
	parent.HandleMessage(&Message{Type: MsgPing, From: "C", FromTopic: ".a.b", Dest: ".a"})
	parentEnv.reset()

	parent.Tick()
	var down *Message
	for _, s := range parentEnv.sentOfType(MsgDigest) {
		if s.to == "C" {
			down = s.msg
		}
	}
	if down == nil || down.Dest != ".a.b" || down.TTL != 1 {
		t.Fatalf("downward digest to C missing or mis-stamped: %+v", down)
	}

	child.HandleMessage(down)
	counters := childEnv.sentOfType(MsgDigest)
	if len(counters) != 1 {
		t.Fatalf("child sent %d counter-digests, want 1", len(counters))
	}
	parentEnv.reset()
	parent.HandleMessage(counters[0].msg)
	pushes := parentEnv.sentOfType(MsgDigestAns)
	if len(pushes) != 1 || len(pushes[0].msg.Events) != 1 || pushes[0].msg.Events[0].ID != deepEv.ID {
		t.Fatalf("parent pushed %+v, want only the .a.b event", pushes)
	}
	childEnv.reset()
	child.HandleMessage(pushes[0].msg)
	if len(childEnv.delivered) != 1 || childEnv.delivered[0].ID != deepEv.ID {
		t.Fatalf("child delivered %v, want [%v]", childEnv.delivered, deepEv.ID)
	}
}

// TestSubContactLearningBounded: the learned subgroup contact list is
// FIFO-bounded and never grows with traffic.
func TestSubContactLearningBounded(t *testing.T) {
	params := recoverParams()
	params.CrossRecoverPeriod = 1
	env := newFakeEnv(14)
	p := MustNewProcess("P", ".a", params, env)
	max := p.maxSubContacts()
	for i := 0; i < max*3; i++ {
		p.HandleMessage(&Message{
			Type: MsgPing, From: ids.ProcessID(fmt.Sprintf("c%03d", i)), FromTopic: ".a.b",
		})
	}
	got := p.SubContacts()
	if len(got) != max {
		t.Fatalf("subgroup contacts = %d, want bounded at %d", len(got), max)
	}
	// FIFO: the newest survive.
	if got[len(got)-1] != ids.ProcessID(fmt.Sprintf("c%03d", max*3-1)) {
		t.Errorf("newest contact missing; tail = %v", got[len(got)-1])
	}
	// Same-topic and supertopic traffic is never learned.
	p.HandleMessage(&Message{Type: MsgPing, From: "peer", FromTopic: ".a"})
	p.HandleMessage(&Message{Type: MsgPing, From: "root", FromTopic: "."})
	for _, id := range p.SubContacts() {
		if id == "peer" || id == "root" {
			t.Errorf("non-subgroup contact %s learned", id)
		}
	}
}

// TestRecoverDisabledIsInert: with RecoverPeriod 0 (the default) no
// store exists, ticks send nothing, and inbound recovery traffic —
// digests and pushed answers alike — is dropped without effect.
func TestRecoverDisabledIsInert(t *testing.T) {
	params := recoverParams()
	params.RecoverPeriod = 0
	env := newFakeEnv(4)
	p := MustNewProcess("A", ".t", params, env)
	p.SeedTopicTable([]ids.ProcessID{"B"})
	if _, err := p.Publish([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if p.EventStoreLen() != 0 {
		t.Errorf("disabled recovery stored %d events", p.EventStoreLen())
	}
	env.reset()
	for i := 0; i < 10; i++ {
		p.Tick()
	}
	for _, s := range env.sent {
		if s.msg.Type.IsRecovery() {
			t.Fatalf("disabled recovery sent %v", s.msg)
		}
	}
	p.HandleMessage(&Message{Type: MsgDigest, From: "B", FromTopic: ".t", TTL: 1})
	if got := env.sentOfType(MsgDigestAns); len(got) != 0 {
		t.Errorf("disabled recovery served %v", got)
	}
	p.HandleMessage(&Message{Type: MsgDigestAns, From: "B", FromTopic: ".t",
		Events: []*Event{{ID: ids.EventID{Origin: "B", Seq: 9}, Topic: ".t"}}})
	if len(env.delivered) != 0 {
		t.Errorf("disabled recovery delivered a pushed event")
	}
	if st := p.RecoveryStats(); st != (RecoveryStats{}) {
		t.Errorf("disabled recovery has stats %+v", st)
	}
}

// TestRecoverStoreMemoryBound: sustained publishing never grows the
// store past its cap, and age GC drains it completely, with every
// eviction counted.
func TestRecoverStoreMemoryBound(t *testing.T) {
	params := recoverParams()
	params.RecoverPeriod = 1
	params.RecoverStoreCap = 4
	params.RecoverMaxAge = 3
	env := newFakeEnv(5)
	p := MustNewProcess("A", ".t", params, env)
	const published = 50
	for i := 0; i < published; i++ {
		if _, err := p.Publish([]byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
		if p.EventStoreLen() > params.RecoverStoreCap {
			t.Fatalf("store holds %d > cap %d", p.EventStoreLen(), params.RecoverStoreCap)
		}
	}
	if st := p.RecoveryStats(); st.GCd != published-uint64(params.RecoverStoreCap) {
		t.Errorf("capacity evictions = %d, want %d", st.GCd, published-params.RecoverStoreCap)
	}
	// Age everything out (empty topic table: waves only GC).
	for i := 0; i < params.RecoverMaxAge+2; i++ {
		p.Tick()
	}
	if p.EventStoreLen() != 0 {
		t.Errorf("store holds %d events after aging out", p.EventStoreLen())
	}
	if st := p.RecoveryStats(); st.GCd != published {
		t.Errorf("total evictions = %d, want %d", st.GCd, published)
	}
}

// TestCrossRecoverParamsValidation: cross-group recovery without the
// base recovery plane (or with a broken fanout) is rejected.
func TestCrossRecoverParamsValidation(t *testing.T) {
	params := recoverParams()
	params.RecoverPeriod = 0
	params.CrossRecoverPeriod = 2
	if err := params.Validate(); err == nil {
		t.Error("cross recovery without RecoverPeriod accepted")
	}
	params = recoverParams()
	params.CrossRecoverPeriod = 2
	params.CrossRecoverFanout = -1
	if err := params.Validate(); err == nil {
		t.Error("negative cross fanout accepted")
	}
	params.CrossRecoverFanout = 2
	if err := params.Validate(); err != nil {
		t.Errorf("valid cross params rejected: %v", err)
	}
}
