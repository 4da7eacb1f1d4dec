package core

// Push-based anti-entropy event recovery over bloom digests.
// daMulticast is deliberately best-effort: an event gossiped to ln(S)+c
// members is simply lost when the channel drops the wrong messages or a
// churn wave removes the holders (that loss is exactly what the paper's
// reliability figures measure). The recovery subsystem layered here
// opens that tradeoff as a knob instead of a constant: each process
// keeps a bounded store of recently seen events and periodically
// gossips a bloom-filter digest of their ids (bloom.go) to a few random
// group mates; a receiver pushes back every stored event the filter
// proves the sender missed, and answers with its own digest so the
// exchange repairs both directions in one round trip.
//
// The exchange uses two wire messages:
//
//	MsgDigest    A -> B   bloom filter over the ids A holds. TTL=1 on
//	                      wave-initiating digests invites exactly one
//	                      counter-digest (TTL=0), so an exchange is
//	                      A-digest, B-push+B-digest, A-push — and stops.
//	MsgDigestAns B -> A   full events B holds that A's filter lacked
//
// A bloom filter cannot be enumerated, so the explicit id pull of the
// raw-id protocol (MsgEventReq) is gone: the counter-digest replaces
// it, at the same two-message cost for the common path. False
// positives — the filter claiming A holds an event it never saw — make
// B withhold ("suppress") a push; the per-wave seed rotation in
// buildDigest decorrelates the error, so the event goes out on a later
// wave instead. Convergence is delayed, never prevented; the sim's
// pinned-seed false-positive test holds this.
//
// Recovery is intra-group by default, like the gossip it repairs. With
// CrossRecoverPeriod > 0 a second, slower wave also sends digests along
// the topic hierarchy: up to the supertopic table's contacts and down
// to subgroup contacts learned from inbound traffic. Pushes crossing a
// group boundary are filtered by topic inclusion in both directions
// (only events the destination's topic includes are pushed, and
// receivers drop anything else), so the parasite invariant — no process
// delivers an event outside its subscription — survives. One healed
// subgroup thereby re-ignites its parents, and a parent restocks a
// child that lost everything.
//
// Determinism: the only randomness is target sampling, drawn from the
// process's own Env stream exactly like dissemination fanout; the store
// iterates in insertion order; bloom hashing is pure in (seed, id).
// Under the parallel simulation kernel a run with recovery enabled is
// therefore byte-identical for any worker count. With RecoverPeriod = 0
// (the default) no recovery code draws from any stream, so pre-recovery
// golden digests and figure CSVs are unchanged.

import (
	"sync/atomic"

	"damulticast/internal/ids"
	"damulticast/internal/topic"
	"damulticast/internal/xrand"
)

// Recovery message types, continuing the enum space of message.go and
// leave.go. (The raw-id protocol's MsgEventReq slot, MsgLeave+3, is
// retired with wire v3 and must not be reused without a codec bump.)
const (
	// MsgDigest carries a bloom filter over the sender's recently-seen
	// event ids.
	MsgDigest MsgType = MsgLeave + 1
	// MsgDigestAns carries full events the peer was missing.
	MsgDigestAns MsgType = MsgLeave + 2
)

func init() {
	msgTypeNames[MsgDigest] = "DIGEST"
	msgTypeNames[MsgDigestAns] = "DIGEST_ANS"
}

// IsRecovery reports whether t belongs to the anti-entropy recovery
// exchange (drivers count these separately from event and control
// traffic).
func (t MsgType) IsRecovery() bool {
	return t == MsgDigest || t == MsgDigestAns
}

// maxRecoverBatch bounds the events of one MsgDigestAns, and
// maxRecoverBatchBytes bounds the answer's payload bytes, so a single
// exchange can never produce a frame proportional to a whole store — or
// one that exceeds a live transport's frame limit (TCPTransport.MaxFrame
// defaults to 1 MiB; an oversized answer would be dropped whole, and
// rebuilt and re-dropped every wave). Whatever a bounded answer leaves
// out is advertised again by later digests once the delivered part is
// stored, so recovery advances incrementally across waves.
const (
	maxRecoverBatch      = 64
	maxRecoverBatchBytes = 256 << 10
)

// eventWireSize approximates an event's encoded size for the batch
// byte budget (payload plus id/topic strings and varint overhead).
func eventWireSize(ev *Event) int {
	return len(ev.Payload) + len(ev.ID.Origin) + len(ev.Topic) + 16
}

// admitEvent applies the shared answer budget — the count cap plus the
// byte budget with an admit-at-least-one exception — returning the
// grown batch, the running byte total, and whether ev was admitted
// (callers stop at the first refusal).
func admitEvent(dst []*Event, ev *Event, bytes int) ([]*Event, int, bool) {
	if len(dst) >= maxRecoverBatch {
		return dst, bytes, false
	}
	sz := eventWireSize(ev)
	if len(dst) > 0 && bytes+sz > maxRecoverBatchBytes {
		return dst, bytes, false
	}
	return append(dst, ev), bytes + sz, true
}

// RecoveryStats counts the recovery subsystem's work. Fields are
// cumulative since process creation.
type RecoveryStats struct {
	// Recovered is the number of first-time events obtained through the
	// recovery exchange rather than plain gossip.
	Recovered uint64
	// Suppressed is the number of stored events withheld from a push
	// because the peer's bloom digest claimed possession. Mostly true
	// positives (the peer really holds them); the false-positive
	// fraction is what seed rotation repairs on the next wave. A
	// suppression rate near the store size with reliability below 1 is
	// the signature of an undersized RecoverDigestBits.
	Suppressed uint64
	// Truncated is the number of digests built at the filter byte cap
	// (maxRecoverDigestBytes) because the store exceeded what
	// RecoverDigestBits per entry allows — every id is still inserted,
	// at a degraded false-positive rate. The raw-id protocol silently
	// dropped older ids here; this counter is the saturation signal.
	Truncated uint64
	// GCd is the number of store entries evicted by age or capacity.
	GCd uint64
}

// recoveryCounters is the internal, atomically-updated form of
// RecoveryStats: the owning goroutine increments, any goroutine may
// snapshot (the live hub reads stats from outside the protocol loop).
type recoveryCounters struct {
	recovered  atomic.Uint64
	suppressed atomic.Uint64
	truncated  atomic.Uint64
	gcd        atomic.Uint64
}

// RecoveryStats returns a snapshot of the recovery counters. Safe to
// call from any goroutine.
func (p *Process) RecoveryStats() RecoveryStats {
	return RecoveryStats{
		Recovered:  p.recoverStats.recovered.Load(),
		Suppressed: p.recoverStats.suppressed.Load(),
		Truncated:  p.recoverStats.truncated.Load(),
		GCd:        p.recoverStats.gcd.Load(),
	}
}

// EventStoreLen returns the number of events currently held for
// recovery (0 when recovery is disabled). Exposed for memory-bound
// tests and introspection.
func (p *Process) EventStoreLen() int {
	if p.store == nil {
		return 0
	}
	return p.store.Len()
}

// recoveryEnabled reports whether the recovery task is configured on.
func (p *Process) recoveryEnabled() bool { return p.params.RecoverPeriod > 0 }

// crossRecoveryEnabled reports whether recovery digests also travel
// along supertopic links.
func (p *Process) crossRecoveryEnabled() bool { return p.params.CrossRecoverPeriod > 0 }

// recoverLinked reports whether recovery traffic from a process
// subscribed to ft may be honored: always for the own group, and for
// ancestor or descendant groups when cross-group recovery is on.
func (p *Process) recoverLinked(ft topic.Topic) bool {
	if ft == p.topic {
		return true
	}
	if !p.crossRecoveryEnabled() {
		return false
	}
	return ft.StrictlyIncludes(p.topic) || p.topic.StrictlyIncludes(ft)
}

// storedRef is one ring slot of the event store: the event and the
// tick it was first seen at, for age-based GC.
type storedRef struct {
	ev   *Event
	tick int
}

// eventStore is a bounded, insertion-ordered store of recently seen
// events. Insertion number k (counted by an ids.Window over the last
// cap insertions, which also resolves ids to numbers) lives in
// ring[(k-1) % len(ring)]; the store holds the newest live insertions,
// so capacity eviction and age GC both drop from the oldest end. The
// ring doubles on demand up to cap slots, and the window's storage
// depends on cap alone, so memory is bounded by cap events regardless
// of traffic. Not goroutine-safe; the owning Process drives it.
type eventStore struct {
	cap   int
	index ids.Window
	ring  []storedRef
	live  int
}

func newEventStore(capacity int) *eventStore {
	return &eventStore{cap: capacity, index: ids.NewWindow(capacity)}
}

// Len returns the number of events held.
func (s *eventStore) Len() int { return s.live }

// Cap returns the configured capacity.
func (s *eventStore) Cap() int { return s.cap }

// slot returns the ring slot of insertion number ins.
func (s *eventStore) slot(ins uint64) *storedRef {
	return &s.ring[(ins-1)%uint64(len(s.ring))]
}

// at returns the ring slot of the i-th oldest held entry
// (0 <= i < Len): iterating i upward walks the store in insertion
// order.
func (s *eventStore) at(i int) *storedRef {
	return s.slot(s.index.Inserted() - uint64(s.live) + 1 + uint64(i))
}

// Add inserts ev at the given tick, evicting the oldest entry when the
// store is full. Duplicate ids are ignored (callers add only on first
// sight). It returns the number of entries evicted (0 or 1).
func (s *eventStore) Add(ev *Event, tick int) int {
	if _, held := s.Get(ev.ID); held {
		return 0
	}
	evicted := 0
	if s.live == s.cap {
		s.dropOldest()
		evicted = 1
	}
	if s.live == len(s.ring) {
		s.grow()
	}
	*s.slot(s.index.Insert(ev.ID)) = storedRef{ev: ev, tick: tick}
	s.live++
	return evicted
}

// grow doubles the full ring, up to cap slots, re-placing the live
// entries under the new modulus (consecutive insertion numbers stay
// distinct modulo the larger length).
func (s *eventStore) grow() {
	old := s.ring
	s.ring = make([]storedRef, min(max(2*len(old), 8), s.cap))
	last := s.index.Inserted()
	for ins := last - uint64(s.live) + 1; ins <= last; ins++ {
		*s.slot(ins) = old[(ins-1)%uint64(len(old))]
	}
}

// Get returns the stored event for id, if held.
func (s *eventStore) Get(id ids.EventID) (*Event, bool) {
	ins, ok := s.index.Lookup(id)
	if !ok || s.index.Inserted()-ins >= uint64(s.live) {
		return nil, false
	}
	return s.slot(ins).ev, true
}

// dropOldest evicts the oldest entry, releasing its event.
func (s *eventStore) dropOldest() {
	*s.at(0) = storedRef{}
	s.live--
}

// GC evicts every entry older than maxAge ticks and returns how many
// went. Entries are tick-ordered (ticks only grow), so eviction stops
// at the first young entry.
func (s *eventStore) GC(now, maxAge int) int {
	n := 0
	for s.live > 0 && now-s.at(0).tick > maxAge {
		s.dropOldest()
		n++
	}
	return n
}

// AppendIDs appends up to max held event ids to dst in insertion
// order. When the store holds more, the newest max are taken. (The
// digest itself is a bloom filter over *all* ids now; this remains for
// tests and introspection.)
func (s *eventStore) AppendIDs(dst []ids.EventID, max int) []ids.EventID {
	for i := s.live - min(max, s.live); i < s.live; i++ {
		dst = append(dst, s.at(i).ev.ID)
	}
	return dst
}

// rememberEvent stores a first-seen event for later recovery exchanges
// (no-op with recovery disabled).
func (p *Process) rememberEvent(ev *Event) {
	if p.store == nil {
		return
	}
	if evicted := p.store.Add(ev, p.tick); evicted > 0 {
		p.recoverStats.gcd.Add(uint64(evicted))
	}
}

// buildDigest builds this wave's bloom digest over the whole store. The
// hash seed is derived from (tick, process id), so consecutive waves
// probe different bit patterns — the false-positive decorrelation the
// protocol's convergence relies on. An empty store yields a nil filter:
// precisely how a process that missed everything invites a peer to push
// the backlog. Digests built at the filter byte cap are counted as
// truncated.
func (p *Process) buildDigest() (bits []byte, k int, seed uint64) {
	n := p.store.Len()
	if n == 0 {
		return nil, 0, 0
	}
	nBytes, k, truncated := bloomLayout(n, p.params.RecoverDigestBits)
	if truncated {
		p.recoverStats.truncated.Add(1)
	}
	seed = uint64(xrand.SeedFor(int64(p.tick), "bloom:"+string(p.id)))
	bits = make([]byte, nBytes)
	for i := range n {
		bloomAdd(bits, k, seed, p.store.at(i).ev.ID)
	}
	return bits, k, seed
}

// doRecover runs one intra-group RECOVER wave: age out stale store
// entries, then gossip the store's bloom digest to RecoverFanout random
// group mates with a reply budget of one counter-digest.
func (p *Process) doRecover() {
	if gone := p.store.GC(p.tick, p.params.RecoverMaxAge); gone > 0 {
		p.recoverStats.gcd.Add(uint64(gone))
	}
	targets := p.batch[:0]
	for _, target := range p.topicTable.Sample(p.env.Rand(), p.params.RecoverFanout) {
		if target != p.id {
			targets = append(targets, target)
		}
	}
	if len(targets) == 0 {
		p.batch = targets[:0]
		return
	}
	bits, k, seed := p.buildDigest()
	p.batch = nil // reentrancy guard; see disseminate
	p.env.SendBatch(targets, &Message{
		Type:      MsgDigest,
		From:      p.id,
		FromTopic: p.topic,
		Dest:      p.topic,
		TTL:       1,
		BloomBits: bits,
		BloomK:    k,
		BloomSeed: seed,
	})
	p.batch = targets[:0]
}

// doCrossRecover runs one cross-group wave: the same digest, sent up to
// sampled supertopic-table contacts and down to sampled subgroup
// contacts (noteSubContact), each stamped with the destination group's
// topic so multi-topic endpoints demux it to the right process. The
// digest filter is shared across the sends — receivers treat messages
// as immutable.
func (p *Process) doCrossRecover() {
	bits, k, seed := p.buildDigest()
	proto := Message{
		Type:      MsgDigest,
		From:      p.id,
		FromTopic: p.topic,
		TTL:       1,
		BloomBits: bits,
		BloomK:    k,
		BloomSeed: seed,
	}
	if p.superKnown != "" && p.superTable.Len() > 0 {
		for _, target := range p.superTable.Sample(p.env.Rand(), p.params.CrossRecoverFanout) {
			if target == p.id {
				continue
			}
			up := proto
			up.Dest = p.superKnown
			p.env.Send(target, &up)
		}
	}
	for _, c := range p.sampleSubContacts(p.params.CrossRecoverFanout) {
		down := proto
		down.Dest = c.tp
		p.env.Send(c.id, &down)
	}
}

// onDigest answers a peer's digest: push every stored event the filter
// lacks that the peer's group is entitled to by topic inclusion, then
// return a counter-digest when the sender budgeted for one (TTL > 0;
// the counter-digest carries TTL 0, so the exchange terminates).
func (p *Process) onDigest(m *Message) {
	if p.store == nil || !p.recoverLinked(m.FromTopic) {
		return // recovery never crosses unlinked groups nor runs when disabled
	}
	var out []*Event
	bytes := 0
	for i := range p.store.Len() {
		ev := p.store.at(i).ev
		if !m.FromTopic.Includes(ev.Topic) {
			continue // the peer's group is not entitled to this event
		}
		if bloomHas(m.BloomBits, m.BloomK, m.BloomSeed, ev.ID) {
			p.recoverStats.suppressed.Add(1)
			continue
		}
		var ok bool
		if out, bytes, ok = admitEvent(out, ev, bytes); !ok {
			break
		}
	}
	if len(out) > 0 {
		p.env.Send(m.From, &Message{
			Type:      MsgDigestAns,
			From:      p.id,
			FromTopic: p.topic,
			Dest:      m.FromTopic,
			Events:    out,
		})
	}
	if m.TTL > 0 {
		bits, k, seed := p.buildDigest()
		p.env.Send(m.From, &Message{
			Type:      MsgDigest,
			From:      p.id,
			FromTopic: p.topic,
			Dest:      m.FromTopic,
			TTL:       0,
			BloomBits: bits,
			BloomK:    k,
			BloomSeed: seed,
		})
	}
}

// onDigestAns folds recovered events back into the normal reception
// path: first-time events are stored, re-disseminated (re-igniting the
// epidemic) and delivered; duplicates that raced in via gossip are
// dropped by the seen-set like any other duplicate. Duplicates are
// still re-stored: a seen event whose store entry was evicted would
// otherwise be absent from every future digest, and peers would keep
// re-pushing its full payload wave after wave — re-storing it makes
// the next digest advertise it and shuts that loop after one answer.
// Events outside the receiver's subscription are dropped outright (the
// sender filters by inclusion too; this guard keeps a buggy or
// malicious peer from planting parasite deliveries).
func (p *Process) onDigestAns(m *Message) {
	if p.store == nil || !p.recoverLinked(m.FromTopic) {
		return
	}
	for _, ev := range m.Events {
		if ev == nil || !p.topic.Includes(ev.Topic) {
			continue
		}
		if p.receiveEvent(ev) {
			p.recoverStats.recovered.Add(1)
		} else {
			p.rememberEvent(ev)
		}
	}
}

// subContact is one learned subgroup contact: a process whose traffic
// proved it subscribes to a strict subtopic of ours.
type subContact struct {
	id ids.ProcessID
	tp topic.Topic
}

// maxSubContacts bounds the learned subgroup contact list.
func (p *Process) maxSubContacts() int {
	if n := 2 * p.params.Z; n > 4 {
		return n
	}
	return 4
}

// noteSubContact learns downward links for cross-group recovery from
// ordinary inbound traffic: any message whose FromTopic is a strict
// subtopic of ours names a process the downward wave can digest to.
// The list is bounded and FIFO — fresh contacts displace the oldest,
// matching the churn the rest of the membership layer assumes.
func (p *Process) noteSubContact(from ids.ProcessID, ft topic.Topic) {
	if from == p.id || ft == "" || !p.topic.StrictlyIncludes(ft) {
		return
	}
	for i := range p.subContacts {
		if p.subContacts[i].id == from {
			p.subContacts[i].tp = ft
			return
		}
	}
	if max := p.maxSubContacts(); len(p.subContacts) >= max {
		copy(p.subContacts, p.subContacts[1:])
		p.subContacts = p.subContacts[:len(p.subContacts)-1]
	}
	p.subContacts = append(p.subContacts, subContact{id: from, tp: ft})
}

// sampleSubContacts draws up to k learned subgroup contacts without
// replacement from the process's own stream (partial Fisher-Yates over
// an index copy, like xrand.SampleIDs).
func (p *Process) sampleSubContacts(k int) []subContact {
	n := len(p.subContacts)
	if n == 0 || k <= 0 {
		return nil
	}
	if k >= n {
		return p.subContacts
	}
	r := p.env.Rand()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	out := make([]subContact, 0, k)
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		out = append(out, p.subContacts[idx[i]])
	}
	return out
}

// SubContacts returns the learned subgroup contact ids (for tests and
// introspection).
func (p *Process) SubContacts() []ids.ProcessID {
	out := make([]ids.ProcessID, len(p.subContacts))
	for i, c := range p.subContacts {
		out[i] = c.id
	}
	return out
}
