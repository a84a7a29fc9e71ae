// Package entropy quantifies branch predictability information-
// theoretically: for each static branch, the best accuracy any *fixed*
// predictor indexed by a given context (the branch's own last-k outcomes,
// or the global last-k outcomes) could achieve on the trace — i.e. the
// accuracy of an oracle-filled static PHT — plus the residual conditional
// entropy. The ideal static predictor is exactly the k=0 ceiling, and a
// profiled (statically-filled) PHT predictor meets the ceiling at its
// history length. Adaptive 2-bit-counter predictors usually sit below
// the ceiling (training cost) but can exceed it when the context→outcome
// mapping drifts over program phases, which a static table cannot track;
// comparing the two therefore separates training cost from phase drift.
package entropy

import (
	"fmt"
	"math"
	"sort"

	"branchcorr/internal/trace"
)

// MaxContext bounds the history length to keep context tables exact.
const MaxContext = 16

// Ceiling is one branch's predictability ceiling at each history length.
type Ceiling struct {
	// Best[k] is the maximum achievable accuracy over the trace for a
	// predictor that sees exactly the k-outcome context, k in [0, K].
	// Best[0] is the ideal-static accuracy.
	Best []float64
	// Bits[k] is the residual conditional entropy H(outcome | context)
	// in bits (0 = fully determined).
	Bits []float64
	// Total is the branch's dynamic execution count.
	Total int
}

// Result maps branches to ceilings and carries trace-wide aggregates.
type Result struct {
	PerBranch map[trace.Addr]*Ceiling
	// Weighted[k] is the dynamic-weighted average ceiling at history k.
	Weighted []float64
	// WeightedBits[k] is the dynamic-weighted residual entropy.
	WeightedBits []float64
}

// binEntropy returns the binary entropy (bits) of probability p.
func binEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// kind selects the conditioning context.
type kind int

const (
	localKind kind = iota
	globalKind
)

// ceilings computes per-branch ceilings with the chosen context kind.
func ceilings(t *trace.Trace, maxK int, k kind) *Result {
	if maxK < 0 || maxK > MaxContext {
		panic(fmt.Sprintf("entropy: history length %d out of range [0,%d]", maxK, MaxContext))
	}
	// counts[k][branch ID][context] = [notTaken, taken]
	type ctxCounts map[uint32]*[2]int
	p := t.Packed()
	counts := make([][]ctxCounts, maxK+1)
	for i := range counts {
		counts[i] = make([]ctxCounts, p.NumBranches())
	}
	localHist := make([]uint32, p.NumBranches())
	globalHist := uint32(0)
	for i, id := range p.IDs() {
		var hist uint32
		if k == localKind {
			hist = localHist[id]
		} else {
			hist = globalHist
		}
		taken := p.Taken(i)
		for kk := 0; kk <= maxK; kk++ {
			ctx := hist & (1<<kk - 1)
			m := counts[kk][id]
			if m == nil {
				m = make(ctxCounts)
				counts[kk][id] = m
			}
			c := m[ctx]
			if c == nil {
				c = &[2]int{}
				m[ctx] = c
			}
			if taken {
				c[1]++
			} else {
				c[0]++
			}
		}
		bit := uint32(0)
		if taken {
			bit = 1
		}
		if k == localKind {
			localHist[id] = localHist[id]<<1 | bit
		} else {
			globalHist = globalHist<<1 | bit
		}
	}

	res := &Result{
		PerBranch:    make(map[trace.Addr]*Ceiling, p.NumBranches()),
		Weighted:     make([]float64, maxK+1),
		WeightedBits: make([]float64, maxK+1),
	}
	// Aggregate in sorted branch (and context) order: float addition is
	// not associative, so summing in any other order would make the
	// weighted ceilings differ in their low bits from the address-ordered
	// result.
	ids := make([]int32, p.NumBranches())
	for id, total := range p.Counts() {
		ids[id] = int32(id)
		res.PerBranch[p.AddrOf(int32(id))] = &Ceiling{
			Best:  make([]float64, maxK+1),
			Bits:  make([]float64, maxK+1),
			Total: int(total),
		}
	}
	grand := p.Len()
	sort.Slice(ids, func(i, j int) bool { return p.AddrOf(ids[i]) < p.AddrOf(ids[j]) })
	for kk := 0; kk <= maxK; kk++ {
		grandBest := 0
		grandBits := 0.0
		for _, id := range ids {
			m := counts[kk][id]
			c := res.PerBranch[p.AddrOf(id)]
			ctxs := make([]uint32, 0, len(m))
			for ctx := range m {
				ctxs = append(ctxs, ctx)
			}
			sort.Slice(ctxs, func(i, j int) bool { return ctxs[i] < ctxs[j] })
			best := 0
			bits := 0.0
			for _, ctx := range ctxs {
				cnt := m[ctx]
				maj := cnt[0]
				if cnt[1] > maj {
					maj = cnt[1]
				}
				best += maj
				n := cnt[0] + cnt[1]
				bits += float64(n) * binEntropy(float64(cnt[1])/float64(n))
			}
			c.Best[kk] = float64(best) / float64(c.Total)
			c.Bits[kk] = bits / float64(c.Total)
			grandBest += best
			grandBits += bits
		}
		res.Weighted[kk] = float64(grandBest) / float64(grand)
		res.WeightedBits[kk] = grandBits / float64(grand)
	}
	return res
}

// LocalCeilings computes, per branch, the best accuracy of a statically
// filled table seeing the branch's own last-k outcomes (the fixed-table
// ceiling for the paper's per-address predictability, section 4).
func LocalCeilings(t *trace.Trace, maxK int) *Result {
	return ceilings(t, maxK, localKind)
}

// GlobalCeilings computes, per branch, the best accuracy of a statically
// filled table seeing the global last-k outcomes (the fixed-table ceiling
// for the paper's global correlation, section 3).
func GlobalCeilings(t *trace.Trace, maxK int) *Result {
	return ceilings(t, maxK, globalKind)
}
