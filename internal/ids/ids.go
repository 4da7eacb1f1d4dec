// Package ids defines process and event identities shared by all
// daMulticast components, plus a bounded duplicate-suppression set used
// by the RECEIVE handler ("if eTi not received", Fig. 5 of the paper).
package ids

import (
	"hash/maphash"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

// ProcessID uniquely names a process in the system. In simulations it
// is a small decimal string; in live deployments it is typically
// "host:port" or an application-chosen name.
type ProcessID string

// String returns the identifier.
func (p ProcessID) String() string { return string(p) }

// Indexed builds the simulators' canonical "<prefix>#<i>" process id
// without the fmt machinery — one allocation, no reflection. The bytes
// are exactly fmt.Sprintf("%s#%d", prefix, i), which existing seeds and
// golden digests derive from, so the two constructions stay
// interchangeable.
func Indexed(prefix string, i int) ProcessID {
	b := make([]byte, 0, len(prefix)+12)
	b = append(b, prefix...)
	b = append(b, '#')
	b = strconv.AppendInt(b, int64(i), 10)
	return ProcessID(b)
}

// EventID uniquely identifies a published event as (origin, sequence).
// Each publisher numbers its own events, so IDs are unique without
// coordination.
type EventID struct {
	Origin ProcessID
	Seq    uint64
}

// String formats the event id as "origin#seq", the bytes of
// fmt.Sprintf("%s#%d", e.Origin, e.Seq), in one allocation: the digits
// go to a stack buffer and the text is written once into a builder of
// exactly its size.
func (e EventID) String() string {
	var digits [20]byte
	seq := strconv.AppendUint(digits[:0], e.Seq, 10)
	var b strings.Builder
	b.Grow(len(e.Origin) + 1 + len(seq))
	b.WriteString(string(e.Origin))
	b.WriteByte('#')
	b.Write(seq)
	return b.String()
}

// Less provides a total order for deterministic iteration in tests.
func (e EventID) Less(o EventID) bool {
	if e.Origin != o.Origin {
		return e.Origin < o.Origin
	}
	return e.Seq < o.Seq
}

// SortProcessIDs sorts ids in place and returns them (for deterministic
// logs and tests).
func SortProcessIDs(ps []ProcessID) []ProcessID {
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	return ps
}

// Window numbers inserted ids 1, 2, 3, … and remembers the number of
// each of the last cap insertions. It is the index behind SeenSet, and
// behind the recovery event store, whose ring it addresses by these
// numbers.
//
// It is an exact FIFO: a ring of the ids themselves, insertion k at
// ring[(k-1) % cap], plus an open-addressed, linear-probing index over
// the ring. An index slot holds a ring position + 1 in its low
// bits.Len(cap) bits and the top bits of the id's hash above them, so
// a probe past another id's slot seldom reads the ring; 0 marks an
// empty slot. Overwriting the oldest ring slot first deletes its index
// entry by backward shift (Knuth, TAOCP vol. 3, §6.4, Algorithm R),
// which leaves no tombstones: storage is 24 bytes per ring slot plus 4
// per index slot, at most 2·cap of them, whatever the traffic.
// Re-inserting a held id deletes its index entry and leaves the old
// ring slot unindexed, so each id has one entry, for its latest
// insertion.
//
// The hash is seeded per window: ids arrive from the network, and a
// fixed hash would let a sender pile its ids onto one probe run.
//
// The zero value is unusable; use NewWindow. Window is not
// goroutine-safe.
type Window struct {
	cap     int
	ring    []EventID // doubles on demand up to cap ids
	index   []uint32  // power-of-two length, at least 2·len(ring)
	posMask uint32    // the index-slot bits that hold a position + 1
	shift   uint      // a hash's top 64-shift bits pick its home slot
	tagHome bool      // an index slot's tag bits include its home's
	seed    maphash.Seed
	n       uint64 // insertions so far; the latest id holds number n
	next    int    // the ring position of insertion n+1
}

// NewWindow returns a Window over the last capacity insertions
// (capacity >= 1; a capacity above math.MaxUint32, the most positions
// an index slot can name, is taken as math.MaxUint32). The ring starts
// at 8 ids and doubles as insertions arrive: allocating cap up front
// would make building an N-process simulation O(N·cap) — ~46s of wall
// clock for 20k processes at the default SeenSet window.
func NewWindow(capacity int) Window {
	if uint64(capacity) > math.MaxUint32 {
		capacity = math.MaxUint32
	}
	w := Window{
		cap:     capacity,
		posMask: uint32(1<<bits.Len(uint(capacity)) - 1),
		seed:    maphash.MakeSeed(),
	}
	w.grow()
	return w
}

// hash hashes id: the origin through the window's seeded maphash, the
// sequence number folded in by an xorshift and a multiply whose top
// bits, the ones the index uses, depend on every bit of both. One
// origin's consecutive sequence numbers land evenly spread.
func (w *Window) hash(id EventID) uint64 {
	h := maphash.String(w.seed, string(id.Origin)) ^ id.Seq
	h ^= h >> 32
	return h * 0x9e3779b97f4a7c15
}

// tag returns the bits of hash h an index slot keeps above the
// position: the hash's top ones, which also pick the home slot.
func (w *Window) tag(h uint64) uint32 { return uint32(h>>32) &^ w.posMask }

// home returns the home slot of the entry in index slot s. The tag
// names it unless the index has more slots than the tag bits can name
// (windows over 2^15 ids); then the id is hashed again.
func (w *Window) home(s uint32) int {
	if w.tagHome {
		return int(s >> (w.shift - 32))
	}
	return int(w.hash(w.ring[s&w.posMask-1]) >> w.shift)
}

// find returns the index slot holding the entry of id, whose hash is
// h, if id has one.
func (w *Window) find(h uint64, id EventID) (int, bool) {
	index, posMask := w.index, w.posMask
	mask := len(index) - 1
	tag := w.tag(h)
	for i := int(h >> w.shift); ; i = (i + 1) & mask {
		s := index[i]
		if s == 0 {
			return i, false
		}
		if s&^posMask == tag && w.ring[s&posMask-1] == id {
			return i, true
		}
	}
}

// place stores index slot s in the first empty slot of the probe run
// from home.
func (w *Window) place(home int, s uint32) {
	index := w.index
	mask := len(index) - 1
	i := home
	for index[i] != 0 {
		i = (i + 1) & mask
	}
	index[i] = s
}

// deleteAt empties index slot i and moves back, into the hole, each
// later entry of the probe run whose home does not lie cyclically in
// (hole, entry]: every entry stays reachable from its home.
func (w *Window) deleteAt(i int) {
	index := w.index
	mask := len(index) - 1
	for j := (i + 1) & mask; index[j] != 0; j = (j + 1) & mask {
		if (j-w.home(index[j]))&mask >= (j-i)&mask {
			index[i] = index[j]
			i = j
		}
	}
	index[i] = 0
}

// grow doubles the ring, up to cap ids, and rebuilds the index at the
// matching size. It runs only while the ring is full and has never
// wrapped, so insertion k stays at ring[k-1] and every entry keeps its
// position. It re-places index entries, not ring slots: a slot left
// behind by a re-insert must stay unindexed.
func (w *Window) grow() {
	ring := make([]EventID, min(max(2*len(w.ring), 8), w.cap))
	copy(ring, w.ring)
	w.ring = ring
	w.next = int(w.n)
	old := w.index
	indexBits := bits.Len(uint(2*len(ring) - 1))
	w.index = make([]uint32, 1<<indexBits)
	w.shift = uint(64 - indexBits)
	w.tagHome = indexBits <= bits.LeadingZeros32(w.posMask)
	for _, s := range old {
		if s != 0 {
			w.place(w.home(s), s)
		}
	}
}

// insert records id, whose hash is h and which has no index entry, as
// the next insertion, evicting the oldest if the window is full, and
// returns its number.
func (w *Window) insert(h uint64, id EventID) uint64 {
	if w.n == uint64(len(w.ring)) && len(w.ring) < w.cap {
		w.grow()
	}
	pos := w.next
	if w.n >= uint64(w.cap) {
		// The slot holds insertion n+1-cap, which leaves the window.
		// Its entry, unless a re-insert deleted it, lies on its id's
		// probe run and names this position.
		mask := len(w.index) - 1
		for i := int(w.hash(w.ring[pos]) >> w.shift); w.index[i] != 0; i = (i + 1) & mask {
			if w.index[i]&w.posMask == uint32(pos+1) {
				w.deleteAt(i)
				break
			}
		}
	}
	w.ring[pos] = id
	w.place(int(h>>w.shift), w.tag(h)|uint32(pos+1))
	if w.next++; w.next == len(w.ring) {
		w.next = 0
	}
	w.n++
	return w.n
}

// Insert records id as the next insertion and returns its number. An
// id already in the window is numbered afresh; its older number no
// longer resolves.
func (w *Window) Insert(id EventID) uint64 {
	h := w.hash(id)
	if i, held := w.find(h, id); held {
		w.deleteAt(i)
	}
	return w.insert(h, id)
}

// Lookup returns id's latest insertion number if that insertion is
// among the last cap.
func (w *Window) Lookup(id EventID) (uint64, bool) {
	i, ok := w.find(w.hash(id), id)
	if !ok {
		return 0, false
	}
	// The entry's position is back insertions behind the latest.
	back := w.next - int(w.index[i]&w.posMask)
	if back < 0 {
		back += len(w.ring)
	}
	return w.n - uint64(back), true
}

// Inserted returns the number of insertions so far (the latest
// insertion's number).
func (w *Window) Inserted() uint64 { return w.n }

// SeenSet is a bounded set of EventIDs with FIFO eviction: it holds
// exactly the last Cap ids first sighted. Gossip protocols must
// suppress duplicate deliveries of the same event, but cannot remember
// every event forever; a bounded window is the standard compromise
// (cf. lpbcast's event-id buffer). It is a Window whose ids are
// distinct: a ring of the ids and a hash index over it, 256 KiB at
// DefaultSeenCap, depending on Cap only, never on how many ids have
// passed through it. Add hashes an id once, for both its lookup and
// its insert.
//
// The zero value is unusable; use NewSeenSet. SeenSet is not
// goroutine-safe; callers synchronize (each core.Process owns one).
type SeenSet struct {
	w Window
}

// DefaultSeenCap is a generous default window for simulations and
// examples: large enough that no legitimate duplicate window is missed,
// small enough to bound memory.
const DefaultSeenCap = 8192

// NewSeenSet returns a SeenSet that remembers at most capacity ids.
// capacity <= 0 selects DefaultSeenCap.
func NewSeenSet(capacity int) *SeenSet {
	if capacity <= 0 {
		capacity = DefaultSeenCap
	}
	return &SeenSet{w: NewWindow(capacity)}
}

// Seen reports whether id is in the window.
func (s *SeenSet) Seen(id EventID) bool {
	_, ok := s.w.find(s.w.hash(id), id)
	return ok
}

// Add inserts id, evicting the oldest entry if the window is full.
// It returns true if the id was new (i.e. this is the first sighting).
// One hash serves both the lookup and the insert.
func (s *SeenSet) Add(id EventID) bool {
	h := s.w.hash(id)
	if _, held := s.w.find(h, id); held {
		return false
	}
	s.w.insert(h, id)
	return true
}

// Len returns the number of ids currently remembered. Every insertion
// is of an id not in the window, so the window's ids are distinct.
func (s *SeenSet) Len() int { return int(min(s.w.n, uint64(s.w.cap))) }

// Cap returns the configured window capacity.
func (s *SeenSet) Cap() int { return s.w.cap }
