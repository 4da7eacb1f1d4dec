// Package membership implements the gossip-based "flat" membership
// substrate daMulticast builds on (paper reference [10]: Kermarrec,
// Massoulié, Ganesh — "Probabilistic Reliable Dissemination in
// Large-Scale Systems", IEEE TPDS 2003).
//
// Every process keeps a *partial view* of its group: a uniform random
// sample of the group's members of size (b+1)·ln(S). Views are kept
// fresh by periodic shuffle exchanges with random partners and by
// age-based eviction, so failed processes eventually disappear and the
// sample stays uniform. daMulticast instantiates one such view per
// process as its "topic table" (Table_l^Ti in the paper), and a second,
// constant-size view as its "supertopic table" (sTable_l^Ti).
package membership

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"damulticast/internal/ids"
	"damulticast/internal/xrand"
)

// Entry is one view slot: a process id plus a freshness age. Age 0 is
// freshest; ages grow on every maintenance tick and entries with the
// highest age are evicted first when the view overflows.
type Entry struct {
	ID  ids.ProcessID
	Age int
}

// View is a bounded partial view over a group's members.
//
// View is not goroutine-safe: each protocol process owns its views and
// drives them from a single goroutine (or the single-threaded
// simulator).
type View struct {
	capacity int
	entries  []Entry
	index    map[ids.ProcessID]int // id -> position in entries
	self     ids.ProcessID         // never admitted into the view
}

// NewView creates a view with the given capacity that will refuse to
// contain self (a process never gossips to itself). capacity < 1 is
// raised to 1.
func NewView(self ids.ProcessID, capacity int) *View {
	if capacity < 1 {
		capacity = 1
	}
	return &View{
		capacity: capacity,
		index:    make(map[ids.ProcessID]int, capacity),
		self:     self,
	}
}

// Cap returns the view capacity.
func (v *View) Cap() int { return v.capacity }

// SetCap resizes the view, evicting oldest entries if shrinking.
func (v *View) SetCap(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	v.capacity = capacity
	for len(v.entries) > v.capacity {
		v.evictOldest()
	}
}

// Len returns the number of entries currently held.
func (v *View) Len() int { return len(v.entries) }

// Contains reports whether id is in the view.
func (v *View) Contains(id ids.ProcessID) bool {
	_, ok := v.index[id]
	return ok
}

// Add inserts id with age 0, or refreshes its age to 0 if present.
// The self id is silently ignored. If the view is full, the oldest
// entry is evicted. Add reports whether the id is present afterwards.
func (v *View) Add(id ids.ProcessID) bool {
	return v.AddAged(id, 0)
}

// AddAged inserts id with an explicit age (used when merging views
// received from peers, which carry their own ages). If the id is
// already present the smaller age wins. Returns false only for self.
func (v *View) AddAged(id ids.ProcessID, age int) bool {
	if id == v.self || id == "" {
		return false
	}
	if pos, ok := v.index[id]; ok {
		if age < v.entries[pos].Age {
			v.entries[pos].Age = age
		}
		return true
	}
	if len(v.entries) >= v.capacity {
		v.evictOldest()
	}
	v.index[id] = len(v.entries)
	v.entries = append(v.entries, Entry{ID: id, Age: age})
	return true
}

// evictOldest removes the entry with the maximal age (ties broken by
// position, i.e. insertion order).
func (v *View) evictOldest() {
	if len(v.entries) == 0 {
		return
	}
	worst := 0
	for i, e := range v.entries {
		if e.Age > v.entries[worst].Age {
			worst = i
		}
	}
	v.removeAt(worst)
}

// Remove deletes id from the view if present, reporting whether it was.
func (v *View) Remove(id ids.ProcessID) bool {
	pos, ok := v.index[id]
	if !ok {
		return false
	}
	v.removeAt(pos)
	return true
}

func (v *View) removeAt(pos int) {
	id := v.entries[pos].ID
	last := len(v.entries) - 1
	if pos != last {
		v.entries[pos] = v.entries[last]
		v.index[v.entries[pos].ID] = pos
	}
	v.entries = v.entries[:last]
	delete(v.index, id)
}

// IDs returns a fresh slice of the member ids (unspecified order).
func (v *View) IDs() []ids.ProcessID {
	out := make([]ids.ProcessID, len(v.entries))
	for i, e := range v.entries {
		out[i] = e.ID
	}
	return out
}

// SortedIDs returns the member ids sorted (for deterministic tests).
func (v *View) SortedIDs() []ids.ProcessID {
	return ids.SortProcessIDs(v.IDs())
}

// Entries returns a copy of the entries with their ages.
func (v *View) Entries() []Entry {
	out := make([]Entry, len(v.entries))
	copy(out, v.entries)
	return out
}

// At returns the id of the i-th entry, in the order IDs lists them.
func (v *View) At(i int) ids.ProcessID { return v.entries[i].ID }

// Sample returns min(k, Len) distinct random members.
func (v *View) Sample(r *rand.Rand, k int) []ids.ProcessID {
	return v.AppendSample(nil, r, k)
}

// AppendSample appends min(k, Len) distinct random members to dst and
// returns the extended slice. It appends the same ids in the same
// order, and consumes the same draws from r, as
// xrand.SampleIDs(r, v.IDs(), k): the view's ids are copied onto dst's
// tail and permuted there — a partial Fisher–Yates with SampleIDs'
// r.Intn(n-i) per position, or xrand.Shuffle when k ≥ n. A dst with
// room for the whole view is not reallocated.
func (v *View) AppendSample(dst []ids.ProcessID, r *rand.Rand, k int) []ids.ProcessID {
	n := len(v.entries)
	if k <= 0 || n == 0 {
		return dst
	}
	start := len(dst)
	dst = slices.Grow(dst, n)
	for _, e := range v.entries {
		dst = append(dst, e.ID)
	}
	tail := dst[start:]
	if k >= n {
		xrand.Shuffle(r, tail)
		return dst
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		tail[i], tail[j] = tail[j], tail[i]
	}
	return dst[:start+k]
}

// Pick returns one random member, or false if the view is empty.
func (v *View) Pick(r *rand.Rand) (ids.ProcessID, bool) {
	if len(v.entries) == 0 {
		return "", false
	}
	return v.entries[r.Intn(len(v.entries))].ID, true
}

// AgeAll increments every entry's age by one. Called once per
// maintenance tick.
func (v *View) AgeAll() {
	for i := range v.entries {
		v.entries[i].Age++
	}
}

// EvictOlderThan removes all entries with age > maxAge and returns the
// removed ids. This is the failure-suspicion mechanism: an entry whose
// age was never refreshed by gossip within maxAge ticks is presumed
// failed (detection "via timeouts", paper footnote 7).
func (v *View) EvictOlderThan(maxAge int) []ids.ProcessID {
	var removed []ids.ProcessID
	for i := 0; i < len(v.entries); {
		if v.entries[i].Age > maxAge {
			removed = append(removed, v.entries[i].ID)
			v.removeAt(i)
			continue
		}
		i++
	}
	return removed
}

// Merge folds the peer entries into the view, keeping the freshest age
// per id and evicting oldest entries beyond capacity. This is the
// paper's MERGE: "keep the favorite superprocesses ... and replace the
// failed ones with the fresh ones" — concretely, fresher entries
// displace staler ones.
func (v *View) Merge(peer []Entry) {
	for _, e := range peer {
		v.AddAged(e.ID, e.Age)
	}
}

// MergeIDs folds bare ids (age 0, i.e. maximally fresh) into the view.
func (v *View) MergeIDs(peer []ids.ProcessID) {
	for _, id := range peer {
		v.AddAged(id, 0)
	}
}

// Clone returns a deep copy with the same capacity and self.
func (v *View) Clone() *View {
	c := NewView(v.self, v.capacity)
	for _, e := range v.entries {
		c.AddAged(e.ID, e.Age)
	}
	return c
}

// String renders the view as "{id:age, ...}" sorted by id.
func (v *View) String() string {
	es := v.Entries()
	sort.Slice(es, func(i, j int) bool { return es[i].ID < es[j].ID })
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range es {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%d", e.ID, e.Age)
	}
	b.WriteByte('}')
	return b.String()
}
