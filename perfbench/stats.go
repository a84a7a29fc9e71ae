package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentile returns the highest whole percentile, capped at 99,
// that still has at least ten samples beyond it among n samples — the
// tail a sample of that size can support. ok is false below twenty
// samples, where that percentile would fall below the median.
func tailPercentile(n int) (p float64, ok bool) {
	if n < 20 {
		return 0, false
	}
	p = math.Floor(100 * float64(n-10) / float64(n))
	return math.Min(p, 99), true
}

// percentile returns the nearest-rank p-th percentile of xs (which it
// sorts in place); 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p/100*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// median is the 50th percentile, averaging the middle pair of an even
// sample so two passes report their mean rather than the smaller one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 0 {
		return (s[m-1] + s[m]) / 2
	}
	return s[m]
}

// latencySummary is a timing distribution reported the way the
// benchmark reports every timing: the median, the tail percentile the
// sample supports (see tailPercentile; the maximum below twenty
// samples) and the sample count.
type latencySummary struct {
	N       int
	P50     float64
	TailPct float64
	Tail    float64
}

func summarize(xs []float64) latencySummary {
	s := append([]float64(nil), xs...)
	out := latencySummary{N: len(s), P50: median(s)}
	if p, ok := tailPercentile(len(s)); ok {
		out.TailPct, out.Tail = p, percentile(s, p)
	} else if len(s) > 0 {
		sort.Float64s(s)
		out.TailPct, out.Tail = 100, s[len(s)-1]
	}
	return out
}

// span is one traced interval. Parent is the index of the enclosing
// span in the same slice, or -1 for a root.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Overlapping children (cells
// on parallel workers) are counted once, and a child running past its
// parent is clipped to the parent.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64 = 0, s.Start
		for _, v := range ivs {
			if v.hi <= reach {
				continue
			}
			covered += v.hi - max(v.lo, reach)
			reach = v.hi
		}
		out[i] = s.dur() - covered
	}
	return out
}

// sample is one request's timing, measured from the drain start: when
// a connection sent it and when its response was complete.
type sample struct {
	Sent, Done time.Duration
}

// Latency is the request's round trip.
func (s sample) Latency() time.Duration { return s.Done - s.Sent }

// splitmix64 is the benchmark's seed mixer: every seeded choice (trace
// length offset, request order, spec choice, upload content) draws from a stream started here, so a seed fixes them all.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *splitmix64) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *splitmix64) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// lengthOffsets is how many distinct trace lengths the batch workloads
// use; each has a pinned report digest (digests.go).
const lengthOffsets = 8

// lengthOffset maps a seed to the batch workloads' trace-length offset:
// a multiple of 64 branches below 64·lengthOffsets, small enough that
// the work per pass moves by well under 1% between seeds.
func lengthOffset(seed int64) int {
	r := splitmix64{s: uint64(seed)}
	return 64 * r.intn(lengthOffsets)
}
