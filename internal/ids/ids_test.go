package ids

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"damulticast/internal/invariant"
)

func TestEventIDString(t *testing.T) {
	e := EventID{Origin: "p7", Seq: 42}
	if got := e.String(); got != "p7#42" {
		t.Errorf("String = %q", got)
	}
}

var sinkString string

// String is formatted once per publish and once per live delivery: its
// text must stay fmt's "%s#%d" byte for byte, in one allocation, from
// an empty origin to one longer than any host:port, and from the
// smallest sequence number to the largest.
func TestEventIDStringMatchesSprintfInOneAlloc(t *testing.T) {
	for _, n := range []int{0, 43, 100} {
		origin := ProcessID(strings.Repeat("o", n))
		for _, seq := range []uint64{0, 7, 42, math.MaxUint64} {
			e := EventID{Origin: origin, Seq: seq}
			if got, want := e.String(), fmt.Sprintf("%s#%d", e.Origin, e.Seq); got != want {
				t.Errorf("origin %d bytes, seq %d: String = %q, want %q", n, seq, got, want)
			}
			if allocs := testing.AllocsPerRun(100, func() { sinkString = e.String() }); allocs != 1 {
				t.Errorf("origin %d bytes, seq %d: String allocates %v, want 1", n, seq, allocs)
			}
		}
	}
}

func TestEventIDLess(t *testing.T) {
	tests := []struct {
		a, b EventID
		want bool
	}{
		{EventID{"a", 1}, EventID{"b", 0}, true},
		{EventID{"b", 0}, EventID{"a", 1}, false},
		{EventID{"a", 1}, EventID{"a", 2}, true},
		{EventID{"a", 2}, EventID{"a", 2}, false},
	}
	for _, tt := range tests {
		if got := tt.a.Less(tt.b); got != tt.want {
			t.Errorf("%v.Less(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestSortProcessIDs(t *testing.T) {
	got := SortProcessIDs([]ProcessID{"c", "a", "b"})
	want := []ProcessID{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SortProcessIDs = %v", got)
	}
}

func TestSeenSetBasic(t *testing.T) {
	s := NewSeenSet(4)
	id := EventID{"p", 1}
	if s.Seen(id) {
		t.Error("fresh set claims Seen")
	}
	if !s.Add(id) {
		t.Error("first Add returned false")
	}
	if s.Add(id) {
		t.Error("second Add returned true")
	}
	if !s.Seen(id) {
		t.Error("Seen false after Add")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.Cap() != 4 {
		t.Errorf("Cap = %d", s.Cap())
	}
}

func TestSeenSetEviction(t *testing.T) {
	s := NewSeenSet(3)
	for i := uint64(0); i < 3; i++ {
		s.Add(EventID{"p", i})
	}
	// Adding a 4th evicts the oldest (seq 0).
	s.Add(EventID{"p", 3})
	if s.Seen(EventID{"p", 0}) {
		t.Error("oldest id not evicted")
	}
	for i := uint64(1); i <= 3; i++ {
		if !s.Seen(EventID{"p", i}) {
			t.Errorf("id %d unexpectedly evicted", i)
		}
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
}

func TestSeenSetDefaultCap(t *testing.T) {
	s := NewSeenSet(0)
	if s.Cap() != DefaultSeenCap {
		t.Errorf("Cap = %d, want %d", s.Cap(), DefaultSeenCap)
	}
	s = NewSeenSet(-5)
	if s.Cap() != DefaultSeenCap {
		t.Errorf("Cap = %d, want %d", s.Cap(), DefaultSeenCap)
	}
}

func TestSeenSetCompaction(t *testing.T) {
	// Push far past capacity so every generation is cleared and reused
	// many times over.
	s := NewSeenSet(8)
	for i := uint64(0); i < 1000; i++ {
		if !s.Add(EventID{"p", i}) {
			t.Fatalf("Add(%d) returned false", i)
		}
	}
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s.Len())
	}
	// The last 8 must be present, earlier ones gone.
	for i := uint64(992); i < 1000; i++ {
		if !s.Seen(EventID{"p", i}) {
			t.Errorf("recent id %d missing", i)
		}
	}
	if s.Seen(EventID{"p", 0}) {
		t.Error("ancient id still present")
	}
}

// Property: after any Add sequence, Len never exceeds Cap and the most
// recently added id is always present.
func TestPropSeenSetBounds(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewSeenSet(16)
		var last EventID
		for i := 0; i < int(n)+1; i++ {
			last = EventID{ProcessID(string(rune('a' + r.Intn(4)))), uint64(r.Intn(64))}
			s.Add(last)
			if s.Len() > s.Cap() {
				return false
			}
		}
		return s.Seen(last)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Add returns true iff the id was not already present.
func TestPropAddIdempotent(t *testing.T) {
	prop := func(seqs []uint8) bool {
		s := NewSeenSet(1024)
		ref := map[EventID]bool{}
		for _, q := range seqs {
			id := EventID{"p", uint64(q)}
			fresh := s.Add(id)
			if fresh == ref[id] {
				return false // Add said fresh but ref saw it (or vice versa)
			}
			ref[id] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// fifoSeen is the reference duplicate window: a map plus a FIFO queue
// of the ids in insertion order, evicting the oldest at cap.
type fifoSeen struct {
	cap   int
	set   map[EventID]bool
	queue []EventID
}

func (f *fifoSeen) add(id EventID) bool {
	if f.set[id] {
		return false
	}
	if len(f.queue) == f.cap {
		delete(f.set, f.queue[0])
		f.queue = f.queue[1:]
	}
	f.set[id] = true
	f.queue = append(f.queue, id)
	return true
}

// TestSeenSetMatchesFIFO: the generational window answers Add, Seen
// and Len exactly like a plain FIFO at every step, including ids that
// recur after they were evicted and ids whose stale copy still sits in
// an older generation.
func TestSeenSetMatchesFIFO(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 16, 1024} {
		r := rand.New(rand.NewSource(int64(capacity)))
		s := NewSeenSet(capacity)
		ref := &fifoSeen{cap: capacity, set: map[EventID]bool{}}
		// The id space is a few windows wide, so most ids recur after
		// eviction and some recur while still held.
		space := 3*capacity + 2
		for step := 0; step < 200_000; step++ {
			id := EventID{"p", uint64(r.Intn(space))}
			if r.Intn(4) == 0 {
				if got, want := s.Seen(id), ref.set[id]; got != want {
					t.Fatalf("cap %d step %d: Seen(%v) = %v, FIFO says %v", capacity, step, id, got, want)
				}
				continue
			}
			if got, want := s.Add(id), ref.add(id); got != want {
				t.Fatalf("cap %d step %d: Add(%v) = %v, FIFO says %v", capacity, step, id, got, want)
			}
			if got, want := s.Len(), len(ref.queue); got != want {
				t.Fatalf("cap %d step %d: Len = %d, FIFO says %d", capacity, step, got, want)
			}
		}
	}
}

// TestSeenSetSteadyStorage: once the window has cycled, a million
// further ids allocate nothing and leave the heap where it was.
func TestSeenSetSteadyStorage(t *testing.T) {
	s := NewSeenSet(DefaultSeenCap)
	seq := uint64(0)
	push := func() {
		seq++
		s.Add(EventID{"p", seq})
	}
	for i := 0; i < 4*DefaultSeenCap; i++ {
		push()
	}
	invariant.SteadyStorage(t, 1_000_000, push)
}

func BenchmarkSeenSetAdd(b *testing.B) {
	s := NewSeenSet(8192)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(EventID{"p", uint64(i)})
	}
}

// BenchmarkEventIDString formats a live-looking event id: 1 alloc/op,
// the returned string.
func BenchmarkEventIDString(b *testing.B) {
	e := EventID{Origin: "127.0.0.1:40123", Seq: 1 << 20}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkString = e.String()
	}
}
