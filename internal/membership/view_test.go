package membership

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"damulticast/internal/ids"
	"damulticast/internal/xrand"
)

func TestNewViewClampsCap(t *testing.T) {
	v := NewView("self", 0)
	if v.Cap() != 1 {
		t.Errorf("Cap = %d, want 1", v.Cap())
	}
	v = NewView("self", -4)
	if v.Cap() != 1 {
		t.Errorf("Cap = %d, want 1", v.Cap())
	}
}

func TestAddRefusesSelfAndEmpty(t *testing.T) {
	v := NewView("me", 4)
	if v.Add("me") {
		t.Error("view admitted self")
	}
	if v.Add("") {
		t.Error("view admitted empty id")
	}
	if v.Len() != 0 {
		t.Errorf("Len = %d", v.Len())
	}
}

func TestAddAndContains(t *testing.T) {
	v := NewView("me", 4)
	if !v.Add("a") {
		t.Error("Add(a) = false")
	}
	if !v.Contains("a") {
		t.Error("Contains(a) = false")
	}
	if v.Contains("b") {
		t.Error("Contains(b) = true")
	}
	// Re-adding refreshes age.
	v.AgeAll()
	v.Add("a")
	if es := v.Entries(); es[0].Age != 0 {
		t.Errorf("age after refresh = %d", es[0].Age)
	}
}

func TestAddAgedKeepsFresher(t *testing.T) {
	v := NewView("me", 4)
	v.AddAged("a", 5)
	v.AddAged("a", 2)
	if es := v.Entries(); es[0].Age != 2 {
		t.Errorf("age = %d, want 2", es[0].Age)
	}
	// A staler report never overrides a fresher one.
	v.AddAged("a", 9)
	if es := v.Entries(); es[0].Age != 2 {
		t.Errorf("age = %d, want 2", es[0].Age)
	}
}

func TestEvictionPrefersOldest(t *testing.T) {
	v := NewView("me", 3)
	v.AddAged("a", 0)
	v.AddAged("b", 7)
	v.AddAged("c", 3)
	v.AddAged("d", 1) // overflows; "b" (age 7) must go
	if v.Contains("b") {
		t.Error("oldest entry not evicted")
	}
	for _, id := range []ids.ProcessID{"a", "c", "d"} {
		if !v.Contains(id) {
			t.Errorf("%s missing", id)
		}
	}
}

func TestRemove(t *testing.T) {
	v := NewView("me", 4)
	v.Add("a")
	v.Add("b")
	if !v.Remove("a") {
		t.Error("Remove(a) = false")
	}
	if v.Remove("zz") {
		t.Error("Remove(zz) = true")
	}
	if v.Contains("a") || !v.Contains("b") {
		t.Error("wrong entry removed")
	}
	if v.Len() != 1 {
		t.Errorf("Len = %d", v.Len())
	}
}

func TestSetCapShrinks(t *testing.T) {
	v := NewView("me", 5)
	v.AddAged("a", 0)
	v.AddAged("b", 9)
	v.AddAged("c", 4)
	v.SetCap(1)
	if v.Len() != 1 {
		t.Fatalf("Len = %d", v.Len())
	}
	if !v.Contains("a") {
		t.Error("freshest entry should survive shrink")
	}
	v.SetCap(0)
	if v.Cap() != 1 {
		t.Errorf("Cap = %d", v.Cap())
	}
}

func TestIDsAndSorted(t *testing.T) {
	v := NewView("me", 4)
	v.Add("c")
	v.Add("a")
	v.Add("b")
	got := v.SortedIDs()
	want := []ids.ProcessID{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SortedIDs = %v", got)
	}
	// IDs returns a copy: mutating it must not affect the view.
	idsCopy := v.IDs()
	idsCopy[0] = "zzz"
	if v.Contains("zzz") {
		t.Error("IDs returned internal storage")
	}
}

func TestAgeAllAndEvictOlderThan(t *testing.T) {
	v := NewView("me", 8)
	v.Add("a")
	v.Add("b")
	v.AgeAll()
	v.Add("c") // fresh
	v.AgeAll()
	// ages: a=2, b=2, c=1
	removed := v.EvictOlderThan(1)
	if len(removed) != 2 {
		t.Fatalf("removed = %v", removed)
	}
	if !v.Contains("c") || v.Len() != 1 {
		t.Errorf("view after eviction: %s", v)
	}
}

func TestMergeRespectsCapacity(t *testing.T) {
	v := NewView("me", 3)
	v.Merge([]Entry{{"a", 0}, {"b", 1}, {"c", 2}, {"d", 3}, {"me", 0}})
	if v.Len() != 3 {
		t.Errorf("Len = %d", v.Len())
	}
	if v.Contains("me") {
		t.Error("merge admitted self")
	}
}

func TestClone(t *testing.T) {
	v := NewView("me", 4)
	v.AddAged("a", 2)
	c := v.Clone()
	c.Add("b")
	if v.Contains("b") {
		t.Error("clone shares state with original")
	}
	if !c.Contains("a") {
		t.Error("clone missing entry")
	}
	if es := c.Entries(); es[0].Age != 2 {
		t.Errorf("clone lost age: %d", es[0].Age)
	}
}

func TestString(t *testing.T) {
	v := NewView("me", 4)
	v.AddAged("b", 1)
	v.AddAged("a", 0)
	if got := v.String(); got != "{a:0, b:1}" {
		t.Errorf("String = %q", got)
	}
}

func TestSampleAndPick(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	v := NewView("me", 10)
	for _, id := range []ids.ProcessID{"a", "b", "c", "d", "e"} {
		v.Add(id)
	}
	s := v.Sample(r, 3)
	if len(s) != 3 {
		t.Errorf("Sample len = %d", len(s))
	}
	excl := map[ids.ProcessID]struct{}{"a": {}, "b": {}, "c": {}}
	s = v.SampleExcluding(r, 5, excl)
	if len(s) != 2 {
		t.Errorf("SampleExcluding len = %d", len(s))
	}
	if _, ok := v.Pick(r); !ok {
		t.Error("Pick failed on non-empty view")
	}
	empty := NewView("me", 2)
	if _, ok := empty.Pick(r); ok {
		t.Error("Pick succeeded on empty view")
	}
}

// AppendSample and Pick must be draw-for-draw the xrand primitives over
// IDs: the same ids in the same order, and the stream left in the same
// state. Views up to 40 entries cover both of SampleIDs' paths (sparse
// when 8k < n, dense otherwise) and the k ≥ n shuffle.
func TestAppendSampleMatchesSampleIDs(t *testing.T) {
	prefix := []ids.ProcessID{"x", "y"}
	for n := 0; n <= 40; n++ {
		v := NewView("me", max(n, 1))
		for i := 0; i < n; i++ {
			v.Add(ids.Indexed("p", i))
		}
		// A removal leaves the entries out of insertion order.
		if n > 2 {
			v.Remove(ids.Indexed("p", 1))
			v.Add("late")
		}
		for seed := int64(0); seed < 50; seed++ {
			// One reference stream, and one stream per way of calling
			// AppendSample: onto nil, onto a full prefix (grown) and
			// onto a prefix with room (in place). All advance in step.
			ref := rand.New(rand.NewSource(seed))
			rs := []*rand.Rand{rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))}
			for k := -1; k <= n+2; k++ {
				want := xrand.SampleIDs(ref, v.IDs(), k)
				dsts := [][]ids.ProcessID{nil, slices.Clip(slices.Clone(prefix)), append(make([]ids.ProcessID, 0, 64), prefix...)}
				for i, dst := range dsts {
					got := v.AppendSample(dst, rs[i], k)
					if !slices.Equal(got[:len(dst)], dst) || !slices.Equal(got[len(dst):], want) {
						t.Fatalf("n=%d k=%d seed=%d: AppendSample onto %v = %v, want that prefix then SampleIDs' %v", n, k, seed, dst, got, want)
					}
				}
				next := ref.Int63()
				for i, r := range rs {
					if got := r.Int63(); got != next {
						t.Fatalf("n=%d k=%d seed=%d dst %d: stream after AppendSample drew %d, after SampleIDs %d", n, k, seed, i, got, next)
					}
				}
			}

			wantID, wantOK := xrand.Pick(ref, v.IDs())
			gotID, gotOK := v.Pick(rs[0])
			if gotID != wantID || gotOK != wantOK || rs[0].Int63() != ref.Int63() {
				t.Fatalf("n=%d seed=%d: Pick = %q,%v, xrand.Pick = %q,%v (or the streams diverged)", n, seed, gotID, gotOK, wantID, wantOK)
			}
		}
	}
}

// Sampling into a reused buffer allocates nothing, on both the partial
// Fisher–Yates and the full-shuffle path.
func TestAppendSampleReusedDstAllocsNothing(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	v := NewView("me", 32)
	for i := 0; i < 28; i++ {
		v.Add(ids.Indexed("p", i))
	}
	var buf []ids.ProcessID
	for _, k := range []int{3, 12, 28, 40} {
		buf = v.AppendSample(buf[:0], r, k)
		if allocs := testing.AllocsPerRun(200, func() { buf = v.AppendSample(buf[:0], r, k) }); allocs != 0 {
			t.Errorf("k=%d: AppendSample into a reused dst allocates %v, want 0", k, allocs)
		}
	}
}

// Property: Len never exceeds Cap regardless of operation sequence.
func TestPropViewBounded(t *testing.T) {
	prop := func(seed int64, ops []uint8) bool {
		r := rand.New(rand.NewSource(seed))
		v := NewView("self", 1+int(uint(seed)%7))
		for _, op := range ops {
			id := ids.ProcessID(string(rune('a' + int(op)%10)))
			switch op % 4 {
			case 0, 1:
				v.AddAged(id, int(op)%5)
			case 2:
				v.Remove(id)
			case 3:
				v.AgeAll()
				v.EvictOlderThan(3)
			}
			if v.Len() > v.Cap() {
				return false
			}
			if v.Contains("self") {
				return false
			}
			_ = r
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: index stays consistent with entries after arbitrary ops
// (every id in IDs() is Contains(), and Len matches).
func TestPropIndexConsistent(t *testing.T) {
	prop := func(ops []uint8) bool {
		v := NewView("self", 5)
		for _, op := range ops {
			id := ids.ProcessID(string(rune('a' + int(op)%8)))
			if op%3 == 0 {
				v.Remove(id)
			} else {
				v.AddAged(id, int(op)%4)
			}
		}
		seen := 0
		for _, id := range v.IDs() {
			if !v.Contains(id) {
				return false
			}
			seen++
		}
		return seen == v.Len()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// BenchmarkViewSample draws one event's gossip targets (fanout 12 from
// a 28-entry view, the topic table at S=1000) into a reused buffer, as
// core's election does: 0 allocs/op.
func BenchmarkViewSample(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	v := NewView("me", 28)
	for i := 0; i < 28; i++ {
		v.Add(ids.Indexed("p", i))
	}
	var buf []ids.ProcessID
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = v.AppendSample(buf[:0], r, 12)
	}
}
