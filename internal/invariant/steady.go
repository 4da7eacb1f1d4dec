// Package invariant holds checks that the tests of several packages
// share.
package invariant

import (
	"runtime"
	"testing"
)

// steadyHeapSlack is how far the live heap may move across a
// steady-storage check: GC metadata and runtime bookkeeping wobble by
// a few KiB, while a structure that grows with traffic moves by far
// more over a million operations.
const steadyHeapSlack = 64 << 10

// SteadyStorage asserts that a bounded structure's storage no longer
// depends on traffic: the caller has warmed it to capacity, and n more
// calls of op (each pushing one id or frame through it) must allocate
// nothing and leave the live heap, measured after a collection, within
// steadyHeapSlack of where it started.
func SteadyStorage(tb testing.TB, n int, op func()) {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(n, op)
	runtime.GC()
	runtime.ReadMemStats(&after)
	// op's closure holds the structure; without this the collection
	// above could free it and hide any growth.
	runtime.KeepAlive(op)
	if allocs != 0 {
		tb.Errorf("%v allocations per op at steady state, want 0", allocs)
	}
	// AllocsPerRun rounds down, so an op allocating on every other call
	// would pass it; the total catches that, with slack for the runtime
	// and other goroutines.
	if mallocs := after.Mallocs - before.Mallocs; mallocs > uint64(n/1000) {
		tb.Errorf("%d allocations over %d ops at steady state, want at most %d", mallocs, n, n/1000)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= steadyHeapSlack {
		tb.Errorf("live heap grew %d B over %d ops at steady state, want < %d", grew, n, steadyHeapSlack)
	}
}
