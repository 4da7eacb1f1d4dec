package main

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// hist is a fixed-size log-linear histogram of non-negative int64
// values (nanoseconds here): exact below 128, then 128 sub-buckets per
// power of two, so a quantile is within 0.8 % of the true value and
// recording never allocates. One goroutine owns each hist; merge and
// quantile run after the owner is done.
type hist struct {
	n      uint64
	counts [histBuckets]uint32
}

// 26 octaves above the exact range reach 2^32 ns (4.3 s); anything
// slower lands in the last bucket.
const (
	histSub     = 128
	histBuckets = 26 * histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 8 // v>>e is in [128, 255]
	idx := (e+1)*histSub + int(v>>uint(e)) - histSub
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// histLow is the smallest value that lands in bucket idx.
func histLow(idx int) float64 {
	if idx < histSub {
		return float64(idx)
	}
	e := idx/histSub - 1
	return float64(int64(idx%histSub+histSub) << uint(e))
}

func (h *hist) record(v int64) {
	h.counts[histIndex(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile interpolates linearly inside the bucket that holds the
// q-th sample. It returns 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			lo, hi := histLow(i), histLow(i+1)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum = next
	}
	return histLow(histBuckets - 1)
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// fastTime and fastRate summarise the windows (or jobs) of one run by
// the decile on the fast side. On a shared host the interference of
// other tenants only ever slows a window down, so the fast side of the
// distribution is the part that repeats: over eight 20 s runs of
// fanin_single on the reference host the medians of the windows'
// rates spread by 6.9 %, their fast deciles by 4.8 %; for the scale
// job's wall time the ranges were 32 % and 24 %. The decile, not the
// best window, so that one lucky second cannot set the number.
func fastTime(xs []float64) float64 { return quantileOf(xs, 0.1) }
func fastRate(xs []float64) float64 { return quantileOf(xs, 0.9) }

// quantileOf returns the q-quantile of xs by linear interpolation
// between order statistics; 0 for an empty slice. xs is not modified.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles matches Python's statistics.quantiles(values, n=4)
// (exclusive method), which is what the benchmark's acceptance rule
// uses for its spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return at(1), at(2), at(3)
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's high-water resident set (Linux reports
// KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// gcCounters are the cumulative GC counters proc.gc_* are differences
// of.
type gcCounters struct {
	cycles uint32
	pause  time.Duration
}

func readGC() gcCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcCounters{cycles: ms.NumGC, pause: time.Duration(ms.PauseTotalNs)}
}

// heapAfterGCMiB forces two collections (the second frees what the
// first one's finalizers and sweep released) and returns the live
// heap.
func heapAfterGCMiB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// paddedCounter keeps per-goroutine counters off each other's cache
// lines.
type paddedCounter struct {
	atomic.Int64
	_ [56]byte
}
