package damulticast

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"damulticast/internal/core"
	"damulticast/internal/ids"
	"damulticast/internal/topic"
	"damulticast/internal/wire"
	"damulticast/internal/xrand"
)

// Hub is one daMulticast endpoint hosting any number of topic
// subscriptions over a single transport: one socket, one inbox loop,
// one maintenance ticker, N topic groups. Per the paper's memory
// bound, each subscription costs ln(S)+c+z table entries regardless of
// the hierarchy's size — the hub makes the transport side match, so an
// application interested in ".news", ".news.sports" and ".market.nyse"
// runs one endpoint instead of three.
//
// Inbound frames carry the destination group's topic (the wire demux
// field introduced in codec v3). The receive path peeks that prefix,
// fans frames into bounded per-subscription queues, and drains the
// queues round-robin with a per-subscription quota, so one hot topic
// cannot monopolize the loop while a cold sibling's frames rot in a
// shared inbox. Decoding happens on the loop goroutine against a
// single pooled wire.Decoder (zero steady-state allocations per
// frame); frames for groups the hub is not subscribed to are counted
// and dropped, never misdelivered. All methods are safe for concurrent
// use.
//
// A Hub returned by NewHub is live immediately: Join subscriptions,
// Publish through them, and Stop the hub when done. Note that
// subscriptions of one hub are distinct group members that happen to
// share an address; a subscription cannot serve as another local
// subscription's supergroup contact (membership views never admit
// their own endpoint) — parent and child groups within one OS process
// need distinct transports, as before.
type Hub struct {
	transport Transport
	id        ids.ProcessID
	params    Params
	baseSeed  int64
	tick      time.Duration
	eventBuf  int
	overflow  OverflowPolicy
	loopCtx   context.Context

	inbox   chan []byte
	pubCh   chan pubReq
	joinCh  chan joinReq
	leaveCh chan leaveReq

	stopped atomic.Bool
	done    chan struct{}
	cancel  context.CancelFunc

	// Receive-path loss counters: frames whose routing prefix or body
	// the decoder rejected, frames discarded because the inbox or a
	// subscription's fairness queue was full, and frames no
	// subscription claimed (traffic for groups this hub is not in).
	// All best-effort losses by design, all counted, never silent.
	malformedFrames atomic.Int64
	overflowFrames  atomic.Int64
	unroutedFrames  atomic.Int64

	mu   sync.Mutex
	subs map[topic.Topic]*Subscription
}

// Subscription is one topic membership of a Hub: a live protocol
// process gossiping in its topic group, delivering that group's events
// on its own channel. Obtained from Hub.Join; ended by Leave (the hub
// and its other subscriptions keep running) or by stopping the hub.
// All methods are safe for concurrent use.
type Subscription struct {
	hub       *Hub
	topic     topic.Topic
	proc      *core.Process
	rng       *rand.Rand
	seeds     []ids.ProcessID
	events    chan Event
	overflow  OverflowPolicy
	findSuper bool
	closeOnce sync.Once

	mu sync.Mutex
	// Per-policy delivery-drop counters (see OverflowPolicy). Which
	// one a full Events channel bumps depends on the subscription's
	// policy; Stats reports their sum as DroppedDeliveries.
	droppedNewest int64
	droppedOldest int64
}

type pubReq struct {
	sub     *Subscription
	payload []byte
	batch   bool
	// payloads is the batch form; only read when batch is set.
	payloads [][]byte
	reply    chan pubResult
}

type pubResult struct {
	id  string
	ids []string
	err error
}

// replyPool recycles publish reply slots (cap-1 channels). A slot goes
// back only after its one reply has been received, so a recycled slot
// is always empty; a publish that gives up waiting drops its slot.
var replyPool = sync.Pool{New: func() any { return make(chan pubResult, 1) }}

type joinReq struct {
	sub   *Subscription
	reply chan error
}

type leaveReq struct {
	sub   *Subscription
	reply chan error
}

// NewHub builds a hub over transport and starts its inbox loop. The
// returned hub is live: Join subscriptions next. Stop releases the
// transport.
func NewHub(transport Transport, opts ...HubOption) (*Hub, error) {
	if transport == nil {
		return nil, ErrNoTransport
	}
	cfg := hubConfig{
		params:   DefaultParams(),
		tick:     500 * time.Millisecond,
		eventBuf: 256,
		ctx:      context.Background(),
	}
	for _, o := range opts {
		o.applyHub(&cfg)
	}
	if cfg.id == "" {
		cfg.id = transport.Addr()
	}
	if cfg.params == (Params{}) {
		cfg.params = DefaultParams()
	}
	if cfg.tick <= 0 {
		cfg.tick = 500 * time.Millisecond
	}
	if cfg.eventBuf <= 0 {
		cfg.eventBuf = 256
	}
	ctx, cancel := context.WithCancel(cfg.ctx)
	h := &Hub{
		transport: transport,
		id:        ids.ProcessID(cfg.id),
		params:    cfg.params,
		baseSeed:  cfg.seed,
		tick:      cfg.tick,
		eventBuf:  cfg.eventBuf,
		overflow:  cfg.overflow,
		loopCtx:   ctx,
		inbox:     make(chan []byte, 1024),
		pubCh:     make(chan pubReq),
		joinCh:    make(chan joinReq),
		leaveCh:   make(chan leaveReq),
		done:      make(chan struct{}),
		cancel:    cancel,
		subs:      make(map[topic.Topic]*Subscription),
	}
	transport.SetHandler(h.onRaw)
	go h.loop(ctx)
	return h, nil
}

// ID returns the hub's process id (shared by all its subscriptions).
func (h *Hub) ID() string { return string(h.id) }

// Addr returns the transport address peers reach this hub at.
func (h *Hub) Addr() string { return h.transport.Addr() }

// Stop terminates the hub: every subscription's delivery channel is
// closed and the transport is released. Safe to call multiple times.
func (h *Hub) Stop() error {
	if !h.stopped.CompareAndSwap(false, true) {
		return nil
	}
	h.cancel()
	<-h.done
	return h.transport.Close()
}

// Join subscribes the hub to a topic of the hierarchy and returns the
// live Subscription. ctx bounds the handshake with the hub's loop
// (joining an unresponsive — e.g. concurrently stopping — hub returns
// promptly); the subscription itself lives until Leave or Stop.
// Joining a topic the hub is already subscribed to fails with
// ErrDuplicateTopic.
func (h *Hub) Join(ctx context.Context, topicStr string, opts ...JoinOption) (*Subscription, error) {
	var jc joinConfig
	for _, o := range opts {
		o.applyJoin(&jc)
	}
	tp, err := topic.Parse(topicStr)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidTopic, err)
	}
	params := h.params
	if jc.params != nil {
		params = *jc.params
	}
	if params == (Params{}) {
		params = DefaultParams()
	}
	// Without an explicit size hint, the configured contacts are the
	// best lower bound on the group size; sizing the topic table from
	// them keeps every provided contact instead of evicting to the
	// minimum view.
	if params.GroupSizeHint == 0 && len(jc.groupContacts) > 0 {
		params.GroupSizeHint = len(jc.groupContacts) + 1
	}
	eventBuf := h.eventBuf
	if jc.eventBuf > 0 {
		eventBuf = jc.eventBuf
	}
	overflow := h.overflow
	if jc.overflow != nil {
		overflow = *jc.overflow
	}
	seed := jc.seed
	if seed == 0 {
		if h.baseSeed != 0 {
			seed = xrand.SeedFor(h.baseSeed, "sub:"+string(tp))
		} else {
			key := string(h.id) + string(tp)
			seed = int64(len(key))*7919 + hashString(key)
		}
	}
	sub := &Subscription{
		hub:      h,
		topic:    tp,
		rng:      rand.New(rand.NewSource(seed)),
		events:   make(chan Event, eventBuf),
		overflow: overflow,
	}
	for _, s := range jc.seeds {
		if s != string(h.id) {
			sub.seeds = append(sub.seeds, ids.ProcessID(s))
		}
	}
	proc, err := core.NewProcess(h.id, tp, params, (*subEnv)(sub))
	if err != nil {
		return nil, err
	}
	sub.proc = proc
	if len(jc.groupContacts) > 0 {
		contacts := make([]ids.ProcessID, 0, len(jc.groupContacts))
		for _, c := range jc.groupContacts {
			contacts = append(contacts, ids.ProcessID(c))
		}
		proc.SeedTopicTable(contacts)
	}
	if len(jc.superContacts) > 0 {
		st, err := topic.Parse(jc.superTopic)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalidSuperTopic, err)
		}
		if !st.StrictlyIncludes(tp) {
			return nil, fmt.Errorf("%w: %s does not include %s", ErrInvalidSuperTopic, st, tp)
		}
		contacts := make([]ids.ProcessID, 0, len(jc.superContacts))
		for _, c := range jc.superContacts {
			contacts = append(contacts, ids.ProcessID(c))
		}
		proc.SeedSuperTable(st, contacts)
	}
	// Bootstrap: without provided super contacts, search for them once
	// the subscription registers with the loop.
	sub.findSuper = !tp.IsRoot() && len(jc.superContacts) == 0

	// Hand the subscription to the loop. Once the loop accepts the
	// request, registration completes promptly.
	req := joinReq{sub: sub, reply: make(chan error, 1)}
	select {
	case h.joinCh <- req:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-h.done:
		return nil, ErrNotRunning
	}
	select {
	case err := <-req.reply:
		if err != nil {
			return nil, err
		}
		return sub, nil
	case <-h.done:
		return nil, ErrNotRunning
	}
}

// hashString is a tiny FNV-style hash for default seeding.
func hashString(s string) int64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h & 0x7fffffffffffffff)
}

// onRaw is the transport receive callback: validate the frame's
// routing prefix (version byte, type, dest) and enqueue the raw frame
// for the loop to demux, decode and dispatch. Both bundled transports
// hand the handler a buffer it owns (fresh per frame), so the frame is
// queued as-is — no copy, no decode, nothing slow on the transport
// goroutine. Prefix-invalid frames and inbox overflow are counted,
// never silent: see Stats.
func (h *Hub) onRaw(payload []byte) {
	if _, _, err := wire.PeekDest(payload); err != nil {
		h.malformedFrames.Add(1)
		return
	}
	select {
	case h.inbox <- payload:
	default:
		h.overflowFrames.Add(1)
	}
}

// Receive-path tuning. Frames queue per subscription (bounded by
// maxQueuedFrames each); every drain quantum serves at most drainQuota
// frames per subscription, so a topic being flooded shares the loop
// with its siblings at worst drainQuota-to-drainQuota; intakeQuota
// bounds how many control-channel operations are serviced between
// quanta so a saturated inbox cannot postpone draining forever.
const (
	maxQueuedFrames = 1024
	drainQuota      = 32
	intakeQuota     = 256
)

// frameQueue is a FIFO of raw frames in a ring that doubles on demand
// up to the push bound, so its storage follows how deep a backlog got,
// never how long it lasted. Popped slots are nil'd so delivered frames
// can be collected.
type frameQueue struct {
	ring [][]byte
	head int
	n    int
}

func (q *frameQueue) len() int { return q.n }

func (q *frameQueue) push(frame []byte, bound int) bool {
	if q.n >= bound {
		return false
	}
	if q.n == len(q.ring) {
		q.grow(bound)
	}
	tail := q.head + q.n
	if tail >= len(q.ring) {
		tail -= len(q.ring)
	}
	q.ring[tail] = frame
	q.n++
	return true
}

// grow doubles the full ring, capped at bound slots, unwrapping the
// queued frames to the front.
func (q *frameQueue) grow(bound int) {
	ring := make([][]byte, min(max(2*len(q.ring), 16), bound))
	k := copy(ring, q.ring[q.head:])
	copy(ring[k:], q.ring[:q.head])
	q.ring, q.head = ring, 0
}

func (q *frameQueue) pop() []byte {
	frame := q.ring[q.head]
	q.ring[q.head] = nil
	q.head++
	if q.head == len(q.ring) {
		q.head = 0
	}
	q.n--
	return frame
}

// hubLoop is the loop goroutine's private state: the process registry,
// the pooled frame decoder, and the fairness queues. Nothing here is
// touched off the loop goroutine.
type hubLoop struct {
	h   *Hub
	reg *core.Registry
	dec *wire.Decoder
	// queues fans raw frames out by their dest prefix, one bounded
	// queue per subscription (keyed by topic) plus one for dest-less
	// bootstrap traffic; rr is the round-robin drain order over the
	// subscription queues and pending the total frames queued.
	queues  map[string]*frameQueue
	control frameQueue
	rr      []string
	cursor  int
	pending int
}

// loop owns every subscription's core.Process (via the registry): all
// protocol state is touched only here. Raw frames from the inbox are
// fanned into per-subscription queues and drained round-robin, one
// quantum between control-channel polls.
//
//damcvet:nonblocking
func (h *Hub) loop(ctx context.Context) {
	l := &hubLoop{
		h:      h,
		reg:    core.NewRegistry(),
		dec:    wire.NewDecoder(),
		queues: make(map[string]*frameQueue),
	}
	defer func() {
		h.mu.Lock()
		subs := make([]*Subscription, 0, len(h.subs))
		for _, s := range h.subs {
			subs = append(subs, s)
		}
		h.mu.Unlock()
		for _, s := range subs {
			s.closeEvents()
		}
		close(h.done)
	}()

	ticker := time.NewTicker(h.tick)
	defer ticker.Stop()
	for {
		if l.pending == 0 {
			select {
			case <-ctx.Done():
				return
			case frame := <-h.inbox:
				l.demux(frame)
			case req := <-h.pubCh:
				l.publish(req)
			case req := <-h.joinCh:
				l.join(req)
			case req := <-h.leaveCh:
				l.leave(req)
			case <-ticker.C:
				l.reg.Tick()
			}
			continue
		}
		// Frames are pending: poll the control channels first (bounded,
		// so a saturated inbox cannot starve the drain), then spend one
		// round-robin quantum on the queues.
	intake:
		for i := 0; i < intakeQuota; i++ {
			select {
			case <-ctx.Done():
				return
			case frame := <-h.inbox:
				l.demux(frame)
			case req := <-h.pubCh:
				l.publish(req)
			case req := <-h.joinCh:
				l.join(req)
			case req := <-h.leaveCh:
				l.leave(req)
			case <-ticker.C:
				l.reg.Tick()
			default:
				break intake
			}
		}
		l.drainQuantum()
	}
}

// demux routes one raw frame into its subscription's queue by the dest
// prefix (validated in onRaw; re-peeking costs a few ns). Frames for
// unknown groups are dropped here, before any decode is paid for them.
//
//damcvet:nonblocking
func (l *hubLoop) demux(frame []byte) {
	_, dest, err := wire.PeekDest(frame)
	if err != nil {
		l.h.malformedFrames.Add(1)
		return
	}
	q := &l.control
	if len(dest) > 0 {
		q = l.queues[string(dest)] // zero-alloc map lookup
		if q == nil {
			l.h.unroutedFrames.Add(1)
			return
		}
	}
	if !q.push(frame, maxQueuedFrames) {
		l.h.overflowFrames.Add(1)
		return
	}
	l.pending++
}

// drainQuantum serves one fairness round: the control queue fully
// (dest-less bootstrap floods are rare and never bulky), then up to
// drainQuota frames from each subscription queue, starting after where
// the previous round left off.
//
//damcvet:nonblocking
func (l *hubLoop) drainQuantum() {
	for l.control.len() > 0 {
		l.pending--
		l.handleFrame(l.control.pop())
	}
	n := len(l.rr)
	for i := 0; i < n; i++ {
		if l.cursor >= len(l.rr) {
			l.cursor = 0
		}
		q := l.queues[l.rr[l.cursor]]
		l.cursor++
		for served := 0; served < drainQuota && q.len() > 0; served++ {
			l.pending--
			l.handleFrame(q.pop())
		}
	}
}

// handleFrame decodes one frame against the loop's pooled decoder and
// feeds it to the routed process. The decoded message and its events
// are scratch, valid only until the next decode — fine for every
// handler (they consume synchronously, and core copies the payload of
// every event it delivers) — except a process whose recovery store
// retains events, which gets deep copies.
//
//damcvet:nonblocking
func (l *hubLoop) handleFrame(frame []byte) {
	m, err := l.dec.Decode(frame)
	if err != nil {
		l.h.malformedFrames.Add(1)
		return
	}
	p := l.reg.Route(m)
	if p == nil {
		l.h.unroutedFrames.Add(1)
		return
	}
	if p.RetainsEvents() {
		if m.Event != nil {
			m.Event = m.Event.Clone()
		}
		if len(m.Events) > 0 {
			evs := make([]*core.Event, len(m.Events))
			for i, ev := range m.Events {
				evs[i] = ev.Clone()
			}
			m.Events = evs
		}
	}
	p.HandleMessage(m)
}

func (l *hubLoop) publish(req pubReq) {
	var res pubResult
	if req.batch {
		var evs []*core.Event
		if evs, res.err = req.sub.proc.PublishBatch(req.payloads); res.err == nil {
			res.ids = make([]string, len(evs))
			for i, ev := range evs {
				res.ids[i] = ev.ID.String()
			}
		}
	} else {
		var ev *core.Event
		if ev, res.err = req.sub.proc.Publish(req.payload); res.err == nil {
			res.id = ev.ID.String()
		}
	}
	// The engine's stopped sentinel is internal; surface the exported
	// lifecycle sentinel so callers outside this module can errors.Is
	// it.
	if errors.Is(res.err, core.ErrStopped) {
		res.err = fmt.Errorf("%w: subscription has left", ErrNotRunning)
	}
	req.reply <- res //damcvet:allow loopblock(reply is buffered cap 1, written once per request)
}

func (l *hubLoop) join(req joinReq) {
	sub := req.sub
	if err := l.reg.Add(sub.proc); err != nil {
		req.reply <- fmt.Errorf("%w: %s", ErrDuplicateTopic, sub.topic) //damcvet:allow loopblock(reply is buffered cap 1, written once per request)
		return
	}
	key := string(sub.topic)
	l.queues[key] = &frameQueue{}
	l.rr = append(l.rr, key)
	l.h.mu.Lock()
	l.h.subs[sub.topic] = sub
	l.h.mu.Unlock()
	if sub.findSuper {
		sub.proc.StartFindSuperContact()
	}
	req.reply <- nil //damcvet:allow loopblock(reply is buffered cap 1, written once per request)
}

func (l *hubLoop) leave(req leaveReq) {
	sub := req.sub
	if l.reg.Get(sub.topic) != sub.proc {
		req.reply <- ErrNotRunning //damcvet:allow loopblock(already left; reply is buffered cap 1, written once per request)
		return
	}
	sub.proc.Leave()
	l.reg.Remove(sub.topic)
	key := string(sub.topic)
	if q := l.queues[key]; q != nil {
		// Frames still queued for the departed group are routing
		// losses now.
		if n := q.len(); n > 0 {
			l.h.unroutedFrames.Add(int64(n))
			l.pending -= n
		}
		delete(l.queues, key)
		for i, k := range l.rr {
			if k == key {
				l.rr = append(l.rr[:i], l.rr[i+1:]...)
				break
			}
		}
	}
	l.h.mu.Lock()
	delete(l.h.subs, sub.topic)
	l.h.mu.Unlock()
	sub.closeEvents()
	req.reply <- nil //damcvet:allow loopblock(reply is buffered cap 1, written once per request)
}

// Topic returns the subscription's topic.
func (s *Subscription) Topic() string { return string(s.topic) }

// Events returns the subscription's delivery channel. It is closed
// when the subscription leaves or the hub stops. What happens when the
// application stops reading it is the subscription's OverflowPolicy.
func (s *Subscription) Events() <-chan Event { return s.events }

// Publish disseminates an event of the subscription's topic and
// returns its id. It blocks until the hub's loop accepts the
// publication, ctx is done, or the hub stops — a publish stuck behind
// a wedged loop returns promptly with ctx.Err(). Publish is sugar for
// a one-payload PublishBatch: same bookkeeping, same dissemination,
// one loop round-trip and at least one frame per event — producers
// with several events in hand should batch them.
func (s *Subscription) Publish(ctx context.Context, payload []byte) (string, error) {
	res, err := s.publish(ctx, pubReq{sub: s, payload: payload})
	return res.id, err
}

// PublishBatch disseminates one event per payload, in order, and
// returns their ids. The whole batch is handed to the loop in one
// round-trip, and events elected for the same (peer, group) pair ride
// one EVENT_BATCH frame instead of one frame each — the batched path
// the live throughput numbers come from. Event ids, ordering and
// recovery bookkeeping are identical to the same sequence of Publish
// calls. An empty batch returns (nil, nil).
func (s *Subscription) PublishBatch(ctx context.Context, payloads [][]byte) ([]string, error) {
	if len(payloads) == 0 {
		return nil, nil
	}
	res, err := s.publish(ctx, pubReq{sub: s, batch: true, payloads: payloads})
	return res.ids, err
}

func (s *Subscription) publish(ctx context.Context, req pubReq) (pubResult, error) {
	h := s.hub
	req.reply = replyPool.Get().(chan pubResult)
	select {
	case h.pubCh <- req:
	case <-ctx.Done():
		return pubResult{}, ctx.Err()
	case <-h.done:
		return pubResult{}, ErrNotRunning
	}
	select {
	case res := <-req.reply:
		replyPool.Put(req.reply)
		return res, res.err
	case <-ctx.Done():
		return pubResult{}, ctx.Err()
	case <-h.done:
		// The reply is buffered, so a service that raced the shutdown
		// may still have landed; prefer it over reporting failure.
		select {
		case res := <-req.reply:
			replyPool.Put(req.reply)
			return res, res.err
		default:
			return pubResult{}, ErrNotRunning
		}
	}
}

// Leave announces a graceful departure to every known peer of this
// subscription's groups (they purge this endpoint immediately instead
// of waiting out failure suspicion), closes the subscription's Events
// channel and removes it from the hub. The hub and its other
// subscriptions are undisturbed. ctx bounds the handshake with the
// hub's loop. Leaving twice, or after the hub stopped, returns
// ErrNotRunning.
func (s *Subscription) Leave(ctx context.Context) error {
	h := s.hub
	req := leaveReq{sub: s, reply: make(chan error, 1)}
	select {
	case h.leaveCh <- req:
	case <-ctx.Done():
		return ctx.Err()
	case <-h.done:
		return ErrNotRunning
	}
	select {
	case err := <-req.reply:
		return err
	case <-h.done:
		return ErrNotRunning
	}
}

// closeEvents closes the delivery channel exactly once (Leave and hub
// shutdown may race).
func (s *Subscription) closeEvents() {
	s.closeOnce.Do(func() { close(s.events) })
}

// SubscriptionStats is a point-in-time snapshot of one subscription's
// counters.
type SubscriptionStats struct {
	// Topic is the subscription's topic.
	Topic string
	// Overflow is the subscription's configured overflow policy.
	Overflow OverflowPolicy
	// DroppedDeliveries counts events discarded at the full Events
	// channel under any policy: DroppedNewest + DroppedOldest.
	DroppedDeliveries int64
	// DroppedNewest counts arriving events discarded (DropNewest, and
	// Block deliveries abandoned at hub shutdown).
	DroppedNewest int64
	// DroppedOldest counts buffered events evicted to admit newer
	// ones (DropOldest).
	DroppedOldest int64
	// Recovery holds the anti-entropy recovery counters (all zero
	// unless Params.RecoverPeriod enables recovery).
	Recovery RecoveryStats
}

// Stats snapshots the subscription's counters.
func (s *Subscription) Stats() SubscriptionStats {
	s.mu.Lock()
	newest, oldest := s.droppedNewest, s.droppedOldest
	s.mu.Unlock()
	return SubscriptionStats{
		Topic:             string(s.topic),
		Overflow:          s.overflow,
		DroppedDeliveries: newest + oldest,
		DroppedNewest:     newest,
		DroppedOldest:     oldest,
		Recovery:          s.proc.RecoveryStats(),
	}
}

// HubStats aggregates every counter of a hub and its live
// subscriptions in one call.
type HubStats struct {
	// MalformedFrames counts inbound frames the wire decoder rejected
	// (bad routing prefix at the transport callback, or bad body at
	// the loop's full decode).
	MalformedFrames int64
	// OverflowFrames counts raw frames dropped because the inbox or a
	// subscription's fairness queue was full.
	OverflowFrames int64
	// UnroutedFrames counts frames no subscription claimed (traffic
	// for groups this hub is not — or no longer — in).
	UnroutedFrames int64
	// DroppedDeliveries sums the per-subscription delivery drops.
	DroppedDeliveries int64
	// Subscriptions holds one snapshot per live subscription, sorted
	// by topic.
	Subscriptions []SubscriptionStats
}

// Stats snapshots the hub's receive-path counters and every live
// subscription's counters.
func (h *Hub) Stats() HubStats {
	st := HubStats{
		MalformedFrames: h.malformedFrames.Load(),
		OverflowFrames:  h.overflowFrames.Load(),
		UnroutedFrames:  h.unroutedFrames.Load(),
	}
	h.mu.Lock()
	subs := make([]*Subscription, 0, len(h.subs))
	for _, s := range h.subs {
		subs = append(subs, s)
	}
	h.mu.Unlock()
	sort.Slice(subs, func(i, j int) bool { return subs[i].topic < subs[j].topic })
	for _, s := range subs {
		ss := s.Stats()
		st.DroppedDeliveries += ss.DroppedDeliveries
		st.Subscriptions = append(st.Subscriptions, ss)
	}
	return st
}

// subEnv adapts *Subscription to core.Env. Methods run on the hub's
// loop goroutine.
type subEnv Subscription

func (e *subEnv) Send(to ids.ProcessID, m *core.Message) {
	buf := getEncBuf()
	buf.b = wire.AppendMessage(buf.b, m)
	// Transport errors are best-effort losses by design. Transports
	// must not retain the payload, so the buffer is safe to reuse.
	_ = e.hub.transport.Send(string(to), buf.b)
	putEncBuf(buf)
}

// SendBatch serializes the lent message exactly once, and the same
// pooled frame goes out to every target; nothing of m is kept.
func (e *subEnv) SendBatch(targets []ids.ProcessID, m *core.Message) {
	buf := getEncBuf()
	buf.b = wire.AppendMessage(buf.b, m)
	for _, to := range targets {
		_ = e.hub.transport.Send(string(to), buf.b)
	}
	putEncBuf(buf)
}

// Deliver hands one event to the application, applying the
// subscription's overflow policy when the Events channel is full. It
// runs on the loop goroutine — the same goroutine that closes the
// channel — so sends never race a close.
//
//damcvet:nonblocking
//damcvet:allow framealias(lent by core; Payload is core's fresh copy, aliasing no frame or decoder buffer, and the lent struct is copied field-by-field here)
func (e *subEnv) Deliver(ev *core.Event) {
	out := Event{
		ID:      ev.ID.String(),
		Topic:   string(ev.Topic),
		Payload: ev.Payload,
	}
	switch e.overflow {
	case Block:
		select {
		case e.events <- out:
		case <-e.hub.loopCtx.Done():
			// Hub shutdown unblocks the delivery; the abandoned event
			// counts as a newest-drop.
			e.mu.Lock()
			e.droppedNewest++
			e.mu.Unlock()
		}
	case DropOldest:
		for {
			select {
			case e.events <- out:
				return
			default:
			}
			// Full: evict the oldest unread event and retry. Converges
			// because only this goroutine sends and capacity is ≥ 1;
			// a concurrent reader only makes room faster.
			select {
			case <-e.events:
				e.mu.Lock()
				e.droppedOldest++
				e.mu.Unlock()
			default:
			}
		}
	default: // DropNewest
		select {
		case e.events <- out:
		default:
			e.mu.Lock()
			e.droppedNewest++
			e.mu.Unlock()
		}
	}
}

func (e *subEnv) Neighborhood(k int) []ids.ProcessID {
	// The bootstrap overlay is the configured seeds plus whatever
	// group mates we already know.
	pool := make([]ids.ProcessID, 0, len(e.seeds)+8)
	pool = append(pool, e.seeds...)
	pool = append(pool, e.proc.TopicTable()...)
	return xrand.SampleIDs(e.rng, pool, k)
}

func (e *subEnv) Rand() *rand.Rand { return e.rng }
