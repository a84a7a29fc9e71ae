// Runtime allocation gate for the oracle's columnar hot path,
// cross-checking the bplint kernel-purity analysis of the
// //bplint:hot-annotated stream functions. The per-record machinery —
// window emission and beam-state collection — must be allocation-free
// once its epoch scratch, key buffer and instance matrices exist; only
// the amortized miss paths (candidate-table growth, watermark prunes)
// and the once-per-branch scoring setup may allocate, and those carry
// justified //bplint:ignore directives in oracle_kernel.go.
package core

import (
	"testing"

	"branchcorr/internal/trace"
)

// TestOracleEmitterAllocs pins oracleEmitter.emit at zero allocations:
// the key buffer is preallocated to the 2-refs-per-entry worst case, so
// no window position may grow it.
func TestOracleEmitterAllocs(t *testing.T) {
	tr := randomTrace(7, 30_000, 48)
	pt := tr.Packed()
	for _, windows := range [][]int{{4}, {16}, {32}, {8, 12, 16, 20, 24, 28, 32}} {
		em := newPackedEmitter(pt, windows)
		for i := 0; i < tr.Len(); i++ {
			em.emit(i)
		}
		allocs := testing.AllocsPerRun(200, func() { em.emit(tr.Len() / 2) })
		if allocs != 0 {
			t.Errorf("windows %v: emit allocates %.1f per call, want 0", windows, allocs)
		}
	}
}

// TestCollectStreamAllocs pins the pass-2/3 collection loop's steady
// state: with every instance matrix sized to its branch's dynamic count
// (as buildBeams sizes it), replaying the stream over reset matrices
// allocates nothing per record, for one window and for a grid.
func TestCollectStreamAllocs(t *testing.T) {
	tr := randomTrace(7, 30_000, 48)
	for _, windows := range [][]int{{8}, {8, 16, 32}} {
		collectAllocs(t, tr, windows)
	}
}

func collectAllocs(t *testing.T, tr *trace.Trace, windows []int) {
	pt := tr.Packed()
	var cands []map[trace.Addr]*Candidates
	for _, sel := range OracleGrid(tr, windows, OracleOptions{Stage: StageProfile}) {
		cands = append(cands, sel.Candidates)
	}
	codes := newSlotCodes(windows)
	beams, hists, beamOf := buildBeams(pt, sortedPCs(cands), cands, &codes)
	reset := func() {
		for _, bm := range beamOf {
			clear(bm.m.planes)
			clear(bm.m.outs)
			bm.m.n = 0
		}
		for _, h := range hists {
			if h != nil {
				*h = instHist{}
			}
		}
	}
	collectBeams(pt, beams, hists, &codes)
	allocs := testing.AllocsPerRun(3, func() {
		reset()
		collectBeams(pt, beams, hists, &codes)
	})
	if allocs != 0 {
		t.Errorf("windows %v: collectBeams allocates %.1f per full replay, want 0", windows, allocs)
	}
}
