// Package simnet is a deterministic, round-based message-passing
// kernel for protocol simulation. It reproduces the paper's simulator
// semantics (§VII-A): synchronous gossip rounds, unreliable best-effort
// channels (per-message Bernoulli loss with success probability
// psucc), and two failure models —
//
//   - stillborn: a process is failed from the start, for everyone
//     (Figs. 8-10), and
//   - per-observer (weakly consistent): a process can appear failed to
//     one observer while appearing alive to another (Fig. 11); the
//     appearance is fixed per (observer, target) pair for the run.
//
// Messages sent in round r are delivered in round r+1.
//
// # Node slots
//
// AddNode gives each node a dense slot, its insertion index. The
// kernel maps an id to its slot once per send (the target) and keeps
// every other per-node structure — nodes, crash marks, sender state,
// merge ranks — in slices indexed by slot. Envelopes carry the sender's
// and target's slots (FromIndex, ToIndex), and a Port is a sender's
// handle that skips the per-send sender lookup.
//
// # Sharded parallel execution
//
// The kernel partitions its nodes into P shards (Workers; default
// GOMAXPROCS) of contiguous slots and runs each round's
// HandleMessage/Tick phase concurrently, one goroutine per shard.
// Determinism is preserved by construction, not by locks:
//
//   - every node draws randomness from its own stream, never from a
//     shared source, so the interleaving of shards cannot change what
//     any node observes;
//   - channel-loss coins are drawn from a per-sender stream owned by
//     the kernel, in the sender's deterministic send order;
//   - per-pair failure appearances (SetPairDown) and link filters
//     (SetLinkDown) must be pure functions — PairDownCoin builds one
//     from a stateless hash;
//   - sends buffer into per-sender outboxes during the phase and merge
//     into the next round's queue in a canonical order, sorted by
//     (From, To, Seq), after all shards join. OnSend observers fire
//     serially during the merge, in that same canonical order. Each
//     shard sorts its senders' outboxes by an integer key, the
//     target's rank in ascending id order above the send's position,
//     so the merge compares no strings.
//
// Consequently a run's full observable behavior — deliveries, their
// order, loss decisions, OnSend sequences — is byte-identical for every
// worker count, including Workers=1 (the sequential kernel).
//
// Contract for nodes under parallel execution: HandleMessage and Tick
// may touch only the node's own state, and Send during a phase must
// use the handling node's own id as From. Mutating kernel topology
// (AddNode, Crash, Recover, SetPairDown, SetLinkDown, Workers) is
// legal only between rounds.
package simnet

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"

	"damulticast/internal/ids"
	"damulticast/internal/xrand"
)

// Node is a simulated process: a message-driven state machine.
// Under parallel execution HandleMessage and Tick are invoked from the
// shard goroutine owning the node; they must not touch other nodes'
// state or shared mutable structures.
type Node interface {
	// ID returns the node's identity.
	ID() ids.ProcessID
	// HandleMessage processes one delivered message.
	HandleMessage(msg any)
	// Tick advances the node's logical clock one round.
	Tick()
}

// Envelope is one in-flight message. Seq is the per-sender send
// counter, part of the canonical (From, To, Seq) merge order. The
// envelope also carries the sender's and the target's node slots as
// they stood at send time (FromIndex, ToIndex).
type Envelope struct {
	From, To ids.ProcessID
	Seq      uint64
	Msg      any
	from, to int32
}

// FromIndex returns the sender's node slot (its insertion index), or
// -1 for a sender that was no node when it sent.
func (e Envelope) FromIndex() int { return int(e.from) }

// ToIndex returns the target's node slot, or -1 for a target that was
// no node when the message was sent.
func (e Envelope) ToIndex() int { return int(e.to) }

// Errors.
var (
	ErrDuplicateNode = errors.New("simnet: duplicate node id")
	ErrUnknownNode   = errors.New("simnet: unknown node id")
)

// pendingSend is a buffered send attempt: the loss decision is made at
// send time (from the sender's deterministic streams) and carried to
// the serial merge, where OnSend observes it in canonical order. delay
// is the number of extra rounds (beyond the normal next-round delivery)
// the link keeps the message in flight.
type pendingSend struct {
	env     Envelope
	dropped bool
	delay   int
}

// senderCtx is the kernel's per-sender state: the outbox buffered
// during a parallel phase, the monotonic send counter, and the loss
// stream. Each ctx is only ever touched by the goroutine currently
// running its node (or the serial driver), so no locking is needed.
// The outbox slice is recycled across rounds ([:0] after each merge).
type senderCtx struct {
	id   ids.ProcessID
	slot int32 // node slot, -1 while the sender is no node
	out  []pendingSend
	seq  uint64
	loss *rand.Rand
}

// shardScratch is one shard's recycled outbox-sort buffers: the sort
// keys and the copy the outbox is permuted from.
type shardScratch struct {
	keys []uint64
	outs []pendingSend
}

// Network is the simulation kernel.
type Network struct {
	seed int64
	rng  *rand.Rand

	// slots maps every id the kernel knows to its slot: a node's index
	// into nodes, down, ctxs and rank (>= 0), or -(k+1) for extern[k], a
	// sender that is no node (test drivers injecting traffic).
	slots  map[ids.ProcessID]int32
	nodes  []Node
	down   []bool
	ctxs   []*senderCtx
	rank   []uint32 // node slot -> position in senders (ascending id)
	extern []*senderCtx

	queue    []Envelope // deliveries for the next round, canonical order
	round    int
	stepping bool // inside a parallel phase: Sends buffer to outboxes

	// delayed holds messages kept in flight by the link-delay function,
	// keyed by delivery round. Allocated lazily: runs without delays
	// never touch it. Within a bucket, envelopes appear in the order
	// their sends were merged (canonical per round, rounds ascending),
	// and a round delivers its bucket before the regular queue — older
	// sends first.
	delayed map[int][]Envelope

	// senders lists every sender context in ascending id order — the
	// concatenation order of the round merge. sendersDirty marks it and
	// rank stale after nodes or senders appear (only legal between
	// rounds); the next Step re-sorts once instead of paying an ordered
	// insert per add.
	senders      []*senderCtx
	sendersDirty bool

	// Recycled per-Step scratch (the kernel's rounds are allocation-free
	// at steady state): the destination-shard partitions, the per-shard
	// delivery counters and outbox-sort buffers, and the spare queue
	// buffer that double-buffers with queue across rounds.
	perShard   [][]Envelope
	delivered  []int
	scratch    []shardScratch
	queueSpare []Envelope

	// PSucc is the per-message channel success probability (1 = lossless).
	PSucc float64

	// TickNodes controls whether Step ticks every node each round.
	TickNodes bool

	// Workers is the shard count P. 0 selects GOMAXPROCS; 1 runs the
	// round phase inline (the sequential kernel). Results are identical
	// for every value.
	Workers int

	// pairDown, when non-nil, implements the weakly consistent model:
	// pairDown(observer, target) reports whether target appears failed
	// to observer; such sends are dropped. Must be a pure function.
	pairDown func(observer, target ids.ProcessID) bool

	// linkDown, when non-nil, drops sends whose (from, to) link it
	// reports severed — the partition primitive. Must be a pure
	// function.
	linkDown func(from, to ids.ProcessID) bool

	// linkDelay, when non-nil, returns the extra rounds a send spends
	// in flight beyond the normal next-round delivery (straggler
	// links). Must be a pure function of its arguments.
	linkDelay func(from, to ids.ProcessID, seq uint64) int

	// OnSend, when non-nil, observes every send attempt. dropped
	// reports whether the channel lost it (loss, dead target, severed
	// link, or per-observer failure appearance). Counting happens here:
	// the paper's message complexity counts events *sent*. During a
	// parallel phase the callback fires at the serial merge, in
	// canonical (From, To, Seq) order.
	OnSend func(env Envelope, dropped bool)

	// OnRoundEnd, when non-nil, runs serially at the very end of every
	// Step, after all shards joined and outboxes merged. Drivers use it
	// to flush per-node effect buffers in deterministic order.
	OnRoundEnd func(round int)
}

// New creates a lossless network with the given seed.
func New(seed int64) *Network {
	return &Network{
		seed:  seed,
		rng:   rand.New(rand.NewSource(seed)),
		slots: make(map[ids.ProcessID]int32),
		PSucc: 1,
	}
}

// Rand exposes the network's serial deterministic random source, for
// setup, failure installation and publish-site selection between
// rounds. Nodes must NOT draw from it — give each node its own stream
// (xrand.NewStream) so parallel rounds stay deterministic.
func (n *Network) Rand() *rand.Rand { return n.rng }

// Seed returns the seed the network was created with.
func (n *Network) Seed() int64 { return n.seed }

// Round returns the current round number (0 before the first Step).
func (n *Network) Round() int { return n.round }

// AddNode registers a node in the next slot.
func (n *Network) AddNode(node Node) error {
	id := node.ID()
	slot := int32(len(n.nodes))
	var c *senderCtx
	if s, ok := n.slots[id]; !ok {
		c = n.newSenderCtx(id)
	} else if s >= 0 {
		return fmt.Errorf("%w: %s", ErrDuplicateNode, id)
	} else {
		// The id sent before it was a node: keep its ctx, so its Seq
		// counter keeps climbing — the merge order relies on (From,
		// Seq) uniqueness — and senders lists it once.
		c = n.extern[-s-1]
		n.extern[-s-1] = nil
	}
	c.slot = slot
	n.slots[id] = slot
	n.nodes = append(n.nodes, node)
	n.down = append(n.down, false)
	n.ctxs = append(n.ctxs, c)
	n.rank = append(n.rank, 0)
	n.sendersDirty = true
	return nil
}

// newSenderCtx creates the per-sender state for a new id and lists it
// among the senders.
func (n *Network) newSenderCtx(id ids.ProcessID) *senderCtx {
	c := &senderCtx{id: id, slot: -1, loss: xrand.NewStream(n.seed, "loss:"+string(id))}
	n.senders = append(n.senders, c)
	n.sendersDirty = true
	return c
}

// nodeSlot returns id's node slot, or -1 if id is no node.
func (n *Network) nodeSlot(id ids.ProcessID) int32 {
	if s, ok := n.slots[id]; ok && s >= 0 {
		return s
	}
	return -1
}

// Node returns the registered node, or nil.
func (n *Network) Node(id ids.ProcessID) Node {
	if s := n.nodeSlot(id); s >= 0 {
		return n.nodes[s]
	}
	return nil
}

// NodeIDs returns all node ids in insertion order (copy).
func (n *Network) NodeIDs() []ids.ProcessID {
	out := make([]ids.ProcessID, len(n.ctxs))
	for i, c := range n.ctxs {
		out[i] = c.id
	}
	return out
}

// Len returns the number of nodes.
func (n *Network) Len() int { return len(n.nodes) }

// Crash marks a node failed for everyone (stillborn when applied
// before the first round). Crashed nodes neither receive nor should
// send; sends they nevertheless attempt are delivered (the kernel does
// not police senders — protocol-level Stop should silence them).
func (n *Network) Crash(id ids.ProcessID) error {
	s := n.nodeSlot(id)
	if s < 0 {
		return fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	n.down[s] = true
	return nil
}

// Recover clears the crashed mark.
func (n *Network) Recover(id ids.ProcessID) {
	if s := n.nodeSlot(id); s >= 0 {
		n.down[s] = false
	}
}

// Down reports whether id is crashed.
func (n *Network) Down(id ids.ProcessID) bool {
	s := n.nodeSlot(id)
	return s >= 0 && n.down[s]
}

// AliveIDs returns ids of nodes not crashed, in insertion order.
func (n *Network) AliveIDs() []ids.ProcessID {
	out := make([]ids.ProcessID, 0, len(n.ctxs))
	for i, c := range n.ctxs {
		if !n.down[i] {
			out = append(out, c.id)
		}
	}
	return out
}

// SetPairDown installs the weakly consistent failure view (Fig. 11
// model). f must be a pure function: it is called concurrently from
// shard goroutines. Pass nil to clear.
func (n *Network) SetPairDown(f func(observer, target ids.ProcessID) bool) {
	n.pairDown = f
}

// SetLinkDown installs a link filter: sends for which f(from, to)
// reports true are dropped (network partitions, correlated link
// failures). f must be a pure function: it is called concurrently from
// shard goroutines. Pass nil to heal.
func (n *Network) SetLinkDown(f func(from, to ids.ProcessID) bool) {
	n.linkDown = f
}

// SetLinkDelay installs a per-send delay function: f(from, to, seq)
// returns how many EXTRA rounds the message stays in flight beyond the
// normal next-round delivery (0 = deliver normally). f must be a pure
// function of its arguments: it is evaluated at send time, possibly on
// a shard goroutine. Pass nil to restore uniform one-round links.
// Delay is only evaluated for sends the channel did not already drop.
func (n *Network) SetLinkDelay(f func(from, to ids.ProcessID, seq uint64) int) {
	n.linkDelay = f
}

// senderCtxFor returns the per-sender context, creating one for
// senders that are not registered nodes (test drivers injecting
// traffic). Unregistered-sender creation is only legal between rounds.
func (n *Network) senderCtxFor(from ids.ProcessID) *senderCtx {
	if s, ok := n.slots[from]; ok {
		if s >= 0 {
			return n.ctxs[s]
		}
		return n.extern[-s-1]
	}
	c := n.newSenderCtx(from)
	n.slots[from] = -int32(len(n.extern)) - 1
	n.extern = append(n.extern, c)
	return c
}

// Port is one sender's handle on the network. Sending through it is
// Network.Send without the per-send lookup of the sender's id; a Port
// taken before its id became a node stays valid after.
type Port struct {
	net *Network
	ctx *senderCtx
}

// Port returns id's sender handle. Creating one for an id the kernel
// has not seen is only legal between rounds.
func (n *Network) Port(id ids.ProcessID) Port { return Port{net: n, ctx: n.senderCtxFor(id)} }

// Send is Network.Send from the port's id.
func (p Port) Send(to ids.ProcessID, msg any) { p.net.send(p.ctx, to, msg) }

// Send enqueues a message for delivery next round. Loss is decided at
// send time: the channel may drop it (1-PSucc, from the sender's loss
// stream), the target may be crashed, the link may be severed, or the
// target may appear failed to the sender under the weakly consistent
// model. OnSend observes the attempt either way.
//
// During a round phase, Send buffers into the sender's outbox and the
// caller must pass the handling node's own id as from. Between rounds,
// Send resolves immediately into the queue.
func (n *Network) Send(from, to ids.ProcessID, msg any) { n.send(n.senderCtxFor(from), to, msg) }

func (n *Network) send(c *senderCtx, to ids.ProcessID, msg any) {
	from := c.id
	c.seq++
	slot := n.nodeSlot(to)
	env := Envelope{From: from, To: to, Seq: c.seq, Msg: msg, from: c.slot, to: slot}
	dropped := false
	switch {
	case slot >= 0 && n.down[slot]:
		dropped = true
	case n.pairDown != nil && n.pairDown(from, to):
		dropped = true
	case n.linkDown != nil && n.linkDown(from, to):
		dropped = true
	case n.PSucc < 1 && c.loss.Float64() >= n.PSucc:
		dropped = true
	}
	delay := 0
	if !dropped && n.linkDelay != nil {
		if delay = n.linkDelay(from, to, c.seq); delay < 0 {
			delay = 0
		}
	}
	if n.stepping {
		c.out = append(c.out, pendingSend{env: env, dropped: dropped, delay: delay})
		return
	}
	if n.OnSend != nil {
		n.OnSend(env, dropped)
	}
	if dropped {
		return
	}
	if delay > 0 {
		n.holdDelayed(env, delay)
		return
	}
	n.queue = append(n.queue, env)
}

// holdDelayed parks a send in the delayed bucket for its delivery
// round. Only called serially (between rounds, or at the merge).
func (n *Network) holdDelayed(env Envelope, delay int) {
	if n.delayed == nil {
		n.delayed = make(map[int][]Envelope)
	}
	due := n.round + 1 + delay
	n.delayed[due] = append(n.delayed[due], env)
}

// Pending returns the number of messages in flight: next round's queue
// plus any delayed sends still held by straggler links.
func (n *Network) Pending() int {
	p := len(n.queue)
	for _, bucket := range n.delayed {
		p += len(bucket)
	}
	return p
}

// workers returns the effective shard count for the current topology.
func (n *Network) workers() int {
	p := n.Workers
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > len(n.nodes) {
		p = len(n.nodes)
	}
	if p < 1 {
		p = 1
	}
	return p
}

// shardOf maps a node to its shard by insertion index, in contiguous
// blocks of the given size: shard s owns indexes [s·block, (s+1)·block).
// Contiguous slabs (rather than the round-robin index%p) keep each
// worker's nodes — and everything they point to, allocated in insertion
// order — adjacent in memory, so a shard's round walks a compact slab
// instead of striding the whole heap. Results are invariant either way:
// every node is owned by exactly one shard, and the serial merge
// canonicalizes outbox order.
func shardOf(index, block int) int { return index / block }

// shardBlock returns the slab size for p shards over n nodes (ceiling
// division; the last shard may own a short slab).
func shardBlock(n, p int) int { return (n + p - 1) / p }

// compareOutbox orders one sender's buffered sends by (To, Seq) — the
// canonical order with From fixed. Seq never repeats within a sender,
// so the order is total (no stability requirement on the sort).
func compareOutbox(a, b pendingSend) int {
	if c := strings.Compare(string(a.env.To), string(b.env.To)); c != 0 {
		return c
	}
	return cmp.Compare(a.env.Seq, b.env.Seq)
}

// sortSenders restores senders to ascending id order and records each
// node's rank in it.
func (n *Network) sortSenders() {
	slices.SortFunc(n.senders, func(a, b *senderCtx) int {
		return strings.Compare(string(a.id), string(b.id))
	})
	for i, c := range n.senders {
		if c.slot >= 0 {
			n.rank[c.slot] = uint32(i)
		}
	}
	n.sendersDirty = false
}

// sortOutbox orders c's outbox by (To, Seq) without comparing strings.
// Each send's key is its target's rank above its position in the
// outbox; positions ascend with Seq, so sorting the keys sorts by
// (To, Seq), and the outbox is permuted through the shard's scratch. An
// outbox holding a send to a non-node has no rank for it and falls back
// to compareOutbox.
func (n *Network) sortOutbox(c *senderCtx, sc *shardScratch) {
	keys := sc.keys[:0]
	for i := range c.out {
		to := c.out[i].env.to
		if to < 0 {
			slices.SortFunc(c.out, compareOutbox)
			return
		}
		keys = append(keys, uint64(n.rank[to])<<32|uint64(i))
	}
	sc.keys = keys
	if slices.IsSorted(keys) {
		return
	}
	slices.Sort(keys)
	outs := append(sc.outs[:0], c.out...)
	for i, k := range keys {
		c.out[i] = outs[uint32(k)]
	}
	clear(outs) // drop Msg references, as the merge does for the outbox
	sc.outs = outs[:0]
}

// Step runs one synchronous round: deliver everything queued (sends
// performed during delivery land in the following round), then tick
// nodes if TickNodes is set. The delivery/tick phase runs across
// Workers shards of contiguous node slots concurrently; each shard then
// sorts its own nodes' outboxes by (To, Seq) — by target rank and
// position, see sortOutbox — while still parallel, and the serial tail
// merely concatenates senders in ascending-From order, reproducing the
// exact canonical (From, To, Seq) order of a global sort without one.
// All round buffers (shard partitions, sort scratch, outboxes, the
// queue) are recycled, so steady-state rounds allocate nothing. It
// returns the number of messages delivered.
func (n *Network) Step() int {
	n.round++
	p := n.workers()
	if n.sendersDirty {
		n.sortSenders()
	}

	// Double-buffer the delivery queue: this round's batch becomes the
	// spare that next round's queue is rebuilt into.
	batch := n.queue
	n.queue = n.queueSpare[:0]

	// Straggler sends whose delay expires this round deliver ahead of
	// the regular queue — they are the older sends. The merged slice
	// replaces batch (and hence the recycled spare); the displaced
	// buffer is simply dropped to the GC, which rounds with stragglers
	// are rare enough to afford.
	if n.delayed != nil {
		if due := n.delayed[n.round]; len(due) > 0 {
			merged := make([]Envelope, 0, len(due)+len(batch))
			merged = append(merged, due...)
			merged = append(merged, batch...)
			batch = merged
		}
		delete(n.delayed, n.round)
	}

	// Partition the batch by destination shard, preserving canonical
	// order within each shard, into the recycled partition buffers.
	if cap(n.perShard) < p {
		n.perShard = make([][]Envelope, p)
		n.scratch = make([]shardScratch, p)
	}
	perShard := n.perShard[:p]
	for s := range perShard {
		perShard[s] = perShard[s][:0]
	}
	block := shardBlock(len(n.nodes), p)
	for _, env := range batch {
		if env.to < 0 {
			// The target was no node at send time; it may have joined
			// since.
			if env.to = n.nodeSlot(env.To); env.to < 0 {
				continue // unknown target: silently dropped
			}
		}
		s := shardOf(int(env.to), block)
		perShard[s] = append(perShard[s], env)
	}
	n.perShard = perShard
	clear(batch) // drop Msg references: recycled capacity must not pin message graphs
	n.queueSpare = batch[:0]

	if cap(n.delivered) < p {
		n.delivered = make([]int, p)
	}
	delivered := n.delivered[:p]
	for s := range delivered {
		delivered[s] = 0
	}

	n.stepping = true
	runShard := func(s int) {
		lo := min(s*block, len(n.nodes))
		hi := min(lo+block, len(n.nodes))
		for _, env := range perShard[s] {
			if n.down[env.to] {
				continue
			}
			n.nodes[env.to].HandleMessage(env.Msg)
			delivered[s]++
		}
		if n.TickNodes {
			for i := lo; i < hi; i++ {
				if !n.down[i] {
					n.nodes[i].Tick()
				}
			}
		}
		// Sort this shard's outboxes while the other shards are still
		// busy: each sender ctx is owned by exactly one shard, so the
		// per-sender sorts need no coordination and the serial merge
		// below degenerates to a concatenation.
		sc := &n.scratch[s]
		for _, c := range n.ctxs[lo:hi] {
			if len(c.out) > 1 {
				n.sortOutbox(c, sc)
			}
		}
	}
	if p == 1 {
		runShard(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(p)
		for s := 0; s < p; s++ {
			go func(s int) {
				defer wg.Done()
				runShard(s)
			}(s)
		}
		wg.Wait()
	}
	n.stepping = false

	// Serial merge: senders in ascending-From order, each outbox
	// already (To, Seq)-sorted. Observers fire in canonical order; the
	// queue is appended in place.
	for _, c := range n.senders {
		if len(c.out) == 0 {
			continue
		}
		for i := range c.out {
			ps := &c.out[i]
			if n.OnSend != nil {
				n.OnSend(ps.env, ps.dropped)
			}
			if ps.dropped {
				continue
			}
			if ps.delay > 0 {
				n.holdDelayed(ps.env, ps.delay)
				continue
			}
			n.queue = append(n.queue, ps.env)
		}
		clear(c.out)
		c.out = c.out[:0]
	}

	// Likewise release this round's delivered envelopes from the shard
	// partitions; the capacity stays for the next round.
	for s := range perShard {
		clear(perShard[s])
		perShard[s] = perShard[s][:0]
	}

	total := 0
	for _, d := range delivered {
		total += d
	}
	if n.OnRoundEnd != nil {
		n.OnRoundEnd(n.round)
	}
	return total
}

// Run steps until the network quiesces (no pending messages, delayed
// ones included) or maxRounds elapse, returning the number of rounds
// executed. With TickNodes set the network may never quiesce (periodic
// tasks keep sending); the bound then decides.
func (n *Network) Run(maxRounds int) int {
	ran := 0
	for ran < maxRounds && n.Pending() > 0 {
		n.Step()
		ran++
	}
	return ran
}

// PairDownCoin builds a deterministic per-(observer,target) failure
// appearance: each ordered pair independently appears failed with
// probability pFail, fixed for the run. The coin is a pure hash of
// (seed, observer, target) — stateless, and therefore safe to call
// concurrently from shard goroutines and independent of evaluation
// order.
func PairDownCoin(seed int64, pFail float64) func(observer, target ids.ProcessID) bool {
	if pFail <= 0 {
		return func(ids.ProcessID, ids.ProcessID) bool { return false }
	}
	if pFail >= 1 {
		return func(ids.ProcessID, ids.ProcessID) bool { return true }
	}
	return func(observer, target ids.ProcessID) bool {
		return xrand.HashCoin(seed, string(observer)+"\x00"+string(target), pFail)
	}
}

// StragglerDelay builds a deterministic link-delay function for
// SetLinkDelay: each send is independently a straggler with probability
// p, in which case it spends between 1 and maxExtra extra rounds in
// flight. Both the coin and the delay magnitude are pure hashes of
// (seed, from, to, seq) — stateless, safe from shard goroutines, and
// independent of evaluation order, so figure runs stay byte-identical
// for every worker count.
func StragglerDelay(seed int64, p float64, maxExtra int) func(from, to ids.ProcessID, seq uint64) int {
	if p <= 0 || maxExtra < 1 {
		return func(ids.ProcessID, ids.ProcessID, uint64) int { return 0 }
	}
	return func(from, to ids.ProcessID, seq uint64) int {
		label := string(from) + "\x00" + string(to) + "\x00" + strconv.FormatUint(seq, 16)
		if !xrand.HashCoin(seed, label, p) {
			return 0
		}
		return 1 + int(xrand.HashUniform(seed+1, label)*float64(maxExtra))
	}
}
