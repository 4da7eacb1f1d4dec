// Package ids defines process and event identities shared by all
// daMulticast components, plus a bounded duplicate-suppression set used
// by the RECEIVE handler ("if eTi not received", Fig. 5 of the paper).
package ids

import (
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
// Eviction never deletes from a map: a Go map does not shrink, and it
// keeps growing over the tombstones deletes leave, so a FIFO map's
// storage would follow the number of ids that ever passed through it.
// Instead three insert-only generations of ⌈cap/2⌉ insertions rotate:
// when the newest fills, the oldest — whose ids are all at least 2·⌈cap/2⌉
// ≥ cap insertions old — is cleared and reused. Lookups scan newest
// first, so a re-inserted id's latest number shadows a stale copy in
// an older generation. Storage is bounded by about 1.5·cap entries
// whatever the traffic.
//
// The zero value is unusable; use NewWindow. Window is not
// goroutine-safe.
type Window struct {
	cap  int
	half int // insertions per generation, ⌈cap/2⌉
	gens [3]map[EventID]uint64
	cur  int    // index of the newest generation
	fill int    // insertions into gens[cur]
	n    uint64 // insertions so far; the latest id holds number n
}

// NewWindow returns a Window over the last capacity insertions
// (capacity >= 1). Only the first generation's map is made, and it
// grows on demand: preallocating here would make building an
// N-process simulation O(N·cap) — ~46s of wall clock for 20k processes
// at the default SeenSet window.
func NewWindow(capacity int) Window {
	return Window{
		cap:  capacity,
		half: (capacity + 1) / 2,
		gens: [3]map[EventID]uint64{make(map[EventID]uint64)},
	}
}

// Insert records id as the next insertion and returns its number. An
// id already in the window is numbered afresh; its older number no
// longer resolves.
func (w *Window) Insert(id EventID) uint64 {
	if w.fill == w.half {
		w.cur = (w.cur + 1) % len(w.gens)
		if w.gens[w.cur] == nil {
			w.gens[w.cur] = make(map[EventID]uint64)
		} else {
			clear(w.gens[w.cur])
		}
		w.fill = 0
	}
	w.fill++
	w.n++
	w.gens[w.cur][id] = w.n
	return w.n
}

// Lookup returns id's latest insertion number if that insertion is
// among the last cap.
func (w *Window) Lookup(id EventID) (uint64, bool) {
	g := w.cur
	for range len(w.gens) {
		if ins, ok := w.gens[g][id]; ok {
			// Older generations hold only older numbers for id.
			return ins, w.n-ins < uint64(w.cap)
		}
		if g == 0 {
			g = len(w.gens)
		}
		g--
	}
	return 0, false
}

// Inserted returns the number of insertions so far (the latest
// insertion's number).
func (w *Window) Inserted() uint64 { return w.n }

// SeenSet is a bounded set of EventIDs with FIFO eviction: it holds
// exactly the last Cap ids first sighted. Gossip protocols must
// suppress duplicate deliveries of the same event, but cannot remember
// every event forever; a bounded window is the standard compromise
// (cf. lpbcast's event-id buffer). Its storage depends on Cap only,
// never on how many ids have passed through it (see Window).
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
	_, ok := s.w.Lookup(id)
	return ok
}

// Add inserts id, evicting the oldest entry if the window is full.
// It returns true if the id was new (i.e. this is the first sighting).
func (s *SeenSet) Add(id EventID) bool {
	if s.Seen(id) {
		return false
	}
	s.w.Insert(id)
	return true
}

// Len returns the number of ids currently remembered. Every insertion
// is of an id not in the window, so the window's ids are distinct.
func (s *SeenSet) Len() int { return int(min(s.w.n, uint64(s.w.cap))) }

// Cap returns the configured window capacity.
func (s *SeenSet) Cap() int { return s.w.cap }
