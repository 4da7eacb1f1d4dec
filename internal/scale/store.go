package scale

import (
	"fmt"
	"math"
	"sort"
	"unsafe"

	"damulticast/internal/core"
	"damulticast/internal/ids"
	"damulticast/internal/topic"
	"damulticast/internal/xrand"
)

// group is the per-group slice of the struct-of-arrays layout. Group
// members occupy the contiguous process-index range [start, start+size);
// member m's membership view is view[viewBase+m*viewStride :
// viewBase+(m+1)*viewStride] and its supertopic table the analogous
// super span. All strides are per group — tiny groups get tiny views —
// so the arrays waste nothing on the paper's skewed 1:10:100 sizing.
type group struct {
	topicID     uint32 // interned topic id (== group index; kept explicit)
	start, size uint32
	viewStride  uint32 // membership-view entries per member, min(size-1, (B+1)·ln S)
	superStride uint32 // supertopic-table entries per member, min(Z, supergroup size)
	fanout      uint32 // gossip fanout min(viewStride, ln S + C)
	super       int32  // supergroup's group index, or -1 for the root
	viewBase    uint64 // offset of this group's views in Store.view
	superBase   uint64 // offset of this group's tables in Store.super
	pSel, pA    float64
}

// Store is the struct-of-arrays process state: every per-process map
// and slice of the full engine collapsed into two flat uint32 arrays
// plus per-group metadata. Building it is the only place randomness
// touches membership; afterwards the store is immutable and shared
// read-only by the kernel.
type Store struct {
	topics    *Table[topic.Topic]
	groups    []group
	view      []uint32 // all membership views, group-major then member-major
	super     []uint32 // all supertopic tables, same layout
	n         uint32   // total processes
	maxStride uint32   // largest viewStride (kernel scratch sizing)
}

// maxViewStride bounds a single view so the kernel's Fisher-Yates
// scratch can index entries with uint16. (B+1)·ln(S) stays
// under 100 for any population that fits in memory; the bound exists to
// make the invariant explicit, not because it is ever near.
const maxViewStride = 1 << 16

// NewStore lays out and populates the state for the given groups under
// the paper's parameters. Views are filled with distinct random group
// mates and supertopic tables with distinct random members of the
// nearest configured supergroup (deepest topic strictly including the
// group's), exactly like sim.NewRunner's static table initialization.
// Every member's tables derive from a pure hash of (seed, member
// index). workers is ignored: the kernel is serial.
func NewStore(specs []GroupSpec, params core.Params, seed int64, workers int) (*Store, error) {
	s := &Store{topics: NewTable[topic.Topic]()}
	var viewLen, superLen uint64
	n := uint64(0)
	for _, g := range specs {
		n += uint64(g.Size)
	}
	if n >= math.MaxUint32 {
		return nil, fmt.Errorf("scale: %d processes exceed the uint32 index space", n)
	}

	// Pass 1: metadata and offsets. Supergroup resolution needs all
	// groups known, so strides involving it are fixed in pass 2.
	start := uint32(0)
	for _, spec := range specs {
		size := uint32(spec.Size)
		stride := uint32(0)
		if size > 1 {
			stride = uint32(xrand.ViewSize(int(size), params.B))
			if stride > size-1 {
				stride = size - 1
			}
		}
		if stride >= maxViewStride {
			return nil, fmt.Errorf("scale: view stride %d for %s exceeds %d", stride, spec.Topic, maxViewStride)
		}
		fanout := uint32(xrand.Fanout(int(size), params.C))
		if fanout > stride {
			fanout = stride
		}
		g := group{
			topicID:    s.topics.Intern(spec.Topic),
			start:      start,
			size:       size,
			viewStride: stride,
			fanout:     fanout,
			super:      -1,
			viewBase:   viewLen,
			pSel:       xrand.PSel(params.G, int(size)),
		}
		viewLen += uint64(size) * uint64(stride)
		if stride > s.maxStride {
			s.maxStride = stride
		}
		s.groups = append(s.groups, g)
		start += size
	}
	s.n = start

	// Pass 2: supergroup links and supertopic-table strides.
	for gi := range s.groups {
		g := &s.groups[gi]
		if sg := s.nearestSupergroup(gi); sg >= 0 {
			g.super = int32(sg)
			stride := uint32(params.Z)
			if ssize := s.groups[sg].size; stride > ssize {
				stride = ssize
			}
			g.superStride = stride
			g.superBase = superLen
			g.pA = xrand.PA(params.A, int(stride))
			superLen += uint64(g.size) * uint64(stride)
		}
	}

	s.view = make([]uint32, viewLen)
	s.super = make([]uint32, superLen)
	s.populate(seed)
	return s, nil
}

// nearestSupergroup returns the index of the deepest group whose topic
// strictly includes group gi's, ties broken to the lexicographically
// smallest topic — the same rule sim.Runner.nearestSupergroup applies.
func (s *Store) nearestSupergroup(gi int) int {
	t := s.topics.Name(s.groups[gi].topicID)
	cands := make([]int, 0, len(s.groups))
	for i := range s.groups {
		if s.topics.Name(s.groups[i].topicID).StrictlyIncludes(t) {
			cands = append(cands, i)
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		return s.topics.Name(s.groups[cands[a]].topicID) < s.topics.Name(s.groups[cands[b]].topicID)
	})
	best := -1
	for _, i := range cands {
		if best < 0 || s.topics.Name(s.groups[i].topicID).Depth() > s.topics.Name(s.groups[best].topicID).Depth() {
			best = i
		}
	}
	return best
}

// populate fills every member's view and supertopic table. Each
// member's entries depend only on (seed, member index).
func (s *Store) populate(seed int64) {
	gi := 0
	for pi := uint32(0); pi < s.n; pi++ {
		for pi >= s.groups[gi].start+s.groups[gi].size {
			gi++
		}
		g := &s.groups[gi]
		m := uint64(pi - g.start)
		if g.viewStride > 0 {
			rng := sm64(mix2(uint64(seed), tagView, uint64(pi)))
			fillDistinct(&rng, s.view[g.viewBase+m*uint64(g.viewStride):][:g.viewStride],
				g.start, g.size, pi)
		}
		if g.superStride > 0 {
			sg := &s.groups[g.super]
			rng := sm64(mix2(uint64(seed), tagSuper, uint64(pi)))
			fillDistinct(&rng, s.super[g.superBase+m*uint64(g.superStride):][:g.superStride],
				sg.start, sg.size, pi)
		}
	}
}

// fillDistinct fills dst with distinct members of [start, start+size),
// never self. Rejection sampling handles the common sparse case (stride
// much smaller than the group); near-full tables — tiny groups where
// the stride approaches size-1 — fall back to a deterministic linear
// scan for the slot instead of rejection-looping toward coupon-collector
// cost. Callers guarantee a free candidate exists (stride ≤ size-1 for
// views, stride ≤ size for tables whose self lies outside the range).
//
// A 1024-bit filter over the entries placed so far answers most
// duplicate checks without the linear scan; a filter hit still scans,
// so the entries are exactly those of the scan alone.
func fillDistinct(rng *sm64, dst []uint32, start, size, self uint32) {
	var placed filter1k
	for j := range dst {
		dst[j] = self // sentinel: self is never a valid entry
		for tries := 0; tries < 64; tries++ {
			c := start + rng.intn(size)
			if c == self || placed.contains(dst, c, j) {
				continue
			}
			dst[j] = c
			break
		}
		if dst[j] == self {
			// Rejection exhausted: take the first unused candidate
			// scanning from a random offset, still per-member
			// deterministic.
			off := rng.intn(size)
			for k := uint32(0); k < size; k++ {
				c := start + (off+k)%size
				if c != self && !placed.contains(dst, c, j) {
					dst[j] = c
					break
				}
			}
		}
		placed.add(dst[j])
	}
}

// filter1k is a 1024-bit membership filter keyed by a value's low ten
// bits: no false negatives, so a miss proves absence.
type filter1k [16]uint64

func (f *filter1k) add(c uint32) { f[c>>6&15] |= 1 << (c & 63) }

// contains reports whether dst[:limit] already holds c, scanning only
// when the filter does not rule c out.
func (f *filter1k) contains(dst []uint32, c uint32, limit int) bool {
	if f[c>>6&15]&(1<<(c&63)) == 0 {
		return false
	}
	for _, prev := range dst[:limit] {
		if prev == c {
			return true
		}
	}
	return false
}

// groupOf returns the index of the group containing process pi (binary
// search over the contiguous group spans).
func (s *Store) groupOf(pi uint32) int {
	lo, hi := 0, len(s.groups)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.groups[mid].start <= pi {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Len returns the total process count.
func (s *Store) Len() int { return int(s.n) }

// Groups returns the number of groups.
func (s *Store) Groups() int { return len(s.groups) }

// GroupTopic returns group gi's topic.
func (s *Store) GroupTopic(gi int) topic.Topic { return s.topics.Name(s.groups[gi].topicID) }

// ProcName renders process pi's boundary identity in the simulator's
// canonical "<topic>#<member>" form. Only tests and debug output pay
// for the string; the kernel itself never materializes names.
func (s *Store) ProcName(pi uint32) ids.ProcessID {
	gi := s.groupOf(pi)
	g := &s.groups[gi]
	return ids.Indexed(string(s.topics.Name(g.topicID)), int(pi-g.start))
}

// View returns process pi's membership view (aliasing the store; do not
// mutate). For tests and introspection.
func (s *Store) View(pi uint32) []uint32 {
	gi := s.groupOf(pi)
	g := &s.groups[gi]
	if g.viewStride == 0 {
		return nil
	}
	m := uint64(pi - g.start)
	return s.view[g.viewBase+m*uint64(g.viewStride):][:g.viewStride]
}

// SuperTable returns process pi's supertopic table (aliasing the store;
// do not mutate). For tests and introspection.
func (s *Store) SuperTable(pi uint32) []uint32 {
	gi := s.groupOf(pi)
	g := &s.groups[gi]
	if g.superStride == 0 {
		return nil
	}
	m := uint64(pi - g.start)
	return s.super[g.superBase+m*uint64(g.superStride):][:g.superStride]
}

// AccountedBytes is the store's self-accounted footprint: the two flat
// arrays plus per-group metadata. Deliberately a pure function of the
// topology (never of allocator behavior) so figure
// series built from it are byte-reproducible.
func (s *Store) AccountedBytes() int64 {
	return int64(len(s.view))*4 + int64(len(s.super))*4 +
		int64(len(s.groups))*int64(unsafe.Sizeof(group{}))
}
