package core

import (
	"fmt"
	"reflect"
	"testing"

	"branchcorr/internal/trace"
)

// Differential tests: the columnar kernels (oracle_kernel.go) must
// reproduce the reference implementation (oracle_reference.go) bit for
// bit — same Candidates (refs, scores, totals) and same Selections —
// over randomized traces, every paper window length, scheme filters,
// prune pressure, and any scoring parallelism.

// diffRng is a 32-bit LCG for building randomized differential traces.
type diffRng uint32

func (r *diffRng) next() uint32 {
	*r = *r*1664525 + 1013904223
	return uint32(*r)
}

func (r *diffRng) bit() bool { return r.next()&0x40000 != 0 }

// randomTrace builds a trace over numPCs static branches with mixed
// random outcomes, biased loop branches (every fourth PC is backward and
// mostly taken, closing iteration segments), and a correlated pair so
// selections are non-trivial.
func randomTrace(seed uint32, n, numPCs int) *trace.Trace {
	tr := trace.New(fmt.Sprintf("rand-%d", seed), 0)
	rng := diffRng(seed)
	last := false
	for i := 0; i < n; i++ {
		pc := trace.Addr(0x1000 + 4*(rng.next()%uint32(numPCs)))
		switch {
		case pc%16 == 0: // loop branch: backward, taken 3 of 4 times
			tr.Append(trace.Record{PC: pc, Taken: rng.next()%4 != 0, Backward: true})
		case pc%16 == 4: // correlated follower: copies the previous outcome
			tr.Append(trace.Record{PC: pc, Taken: last})
		default:
			last = rng.bit()
			tr.Append(trace.Record{PC: pc, Taken: last})
		}
	}
	return tr
}

// xorTriple builds a trace where branch X (0x20) is the XOR of the two
// pseudo-random branches Y (0x10) and Z (0x14): neither component alone
// predicts X, so pair selection must find the interaction.
func xorTriple(n int) *trace.Trace {
	tr := trace.New("xor", 0)
	ry, rz := diffRng(101), diffRng(202)
	for i := 0; i < n; i++ {
		y, z := ry.bit(), rz.bit()
		tr.Append(rec(0x10, y))
		tr.Append(rec(0x14, z))
		tr.Append(rec(0x20, y != z))
	}
	return tr
}

func differentialTraces() []*trace.Trace {
	return []*trace.Trace{
		randomTrace(1, 400, 6),
		randomTrace(2, 600, 12),
		randomTrace(3, 500, 25),
		correlatedPair(150, 2),
		xorTriple(120),
	}
}

// mustEqualCandidates fails unless the two candidate maps are deeply
// identical, with a per-branch diagnostic on mismatch.
func mustEqualCandidates(t *testing.T, got, want map[trace.Addr]*Candidates) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	for pc, w := range want {
		g, ok := got[pc]
		if !ok {
			t.Errorf("branch 0x%x: missing from kernel result", uint32(pc))
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("branch 0x%x:\n kernel    %+v\n reference %+v", uint32(pc), g, w)
		}
	}
	for pc := range got {
		if _, ok := want[pc]; !ok {
			t.Errorf("branch 0x%x: extra in kernel result", uint32(pc))
		}
	}
}

// mustEqualSelections fails unless the two selections are deeply
// identical, with a per-branch, per-size diagnostic on mismatch.
func mustEqualSelections(t *testing.T, got, want *Selections) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	for k := 1; k <= MaxSelectiveRefs; k++ {
		for pc, w := range want.BySize[k] {
			if g := got.BySize[k][pc]; !reflect.DeepEqual(g, w) {
				t.Errorf("size %d branch 0x%x:\n kernel    %v\n reference %v", k, uint32(pc), g, w)
			}
		}
		for pc := range got.BySize[k] {
			if _, ok := want.BySize[k][pc]; !ok {
				t.Errorf("size %d branch 0x%x: extra in kernel result", k, uint32(pc))
			}
		}
	}
}

func TestKernelDifferentialWindows(t *testing.T) {
	for _, tr := range differentialTraces() {
		for _, w := range []int{8, 16, 32} {
			t.Run(fmt.Sprintf("%s/w=%d", tr.Name(), w), func(t *testing.T) {
				cfg := OracleConfig{WindowLen: w}
				gotC := Oracle(tr, OracleOptions{OracleConfig: cfg, Stage: StageProfile}).Candidates
				wantC := ReferenceProfileCandidates(tr, cfg)
				mustEqualCandidates(t, gotC, wantC)
				mustEqualSelections(t, Oracle(tr, OracleOptions{OracleConfig: cfg, Stage: StageSelect, Candidates: gotC}), ReferenceSelectRefs(tr, wantC, cfg))
			})
		}
	}
}

func TestKernelDifferentialSchemes(t *testing.T) {
	tr := randomTrace(7, 500, 10)
	for _, schemes := range [][]Scheme{
		{Occurrence},
		{BackwardCount},
		{Occurrence, BackwardCount},
	} {
		cfg := OracleConfig{Schemes: schemes}
		mustEqualSelections(t, Oracle(tr, OracleOptions{OracleConfig: cfg}), ReferenceBuildSelective(tr, cfg))
	}
}

// TestKernelDifferentialPrunePressure drives the candidate tables
// through repeated watermark prunes (tiny MaxCandidates, wide window,
// many PCs) and checks the kernel reproduces the reference's pruned
// statistics — including the documented restart-from-zero bias —
// exactly.
func TestKernelDifferentialPrunePressure(t *testing.T) {
	for _, maxCands := range []int{4, 8, 24} {
		tr := randomTrace(uint32(maxCands), 800, 30)
		cfg := OracleConfig{WindowLen: 32, MaxCandidates: maxCands}
		gotC := Oracle(tr, OracleOptions{OracleConfig: cfg, Stage: StageProfile}).Candidates
		wantC := ReferenceProfileCandidates(tr, cfg)
		mustEqualCandidates(t, gotC, wantC)
		mustEqualSelections(t, Oracle(tr, OracleOptions{OracleConfig: cfg, Stage: StageSelect, Candidates: gotC}), ReferenceSelectRefs(tr, wantC, cfg))
	}
}

// TestKernelScoreParallelInvariant pins that SelectRefsPacked output is
// invariant across scoring parallelism levels.
func TestKernelScoreParallelInvariant(t *testing.T) {
	tr := randomTrace(11, 600, 12)
	base := Oracle(tr, OracleOptions{OracleConfig: OracleConfig{ScoreParallel: 1}})
	for _, par := range []int{2, 8, 0} {
		got := Oracle(tr, OracleOptions{OracleConfig: OracleConfig{ScoreParallel: par}})
		if !reflect.DeepEqual(got, base) {
			t.Errorf("ScoreParallel=%d selections differ from serial run", par)
		}
	}
}

// TestPruneBiasRegression pins the deterministic mid-stream prune bias
// documented on OracleConfig.MaxCandidates: a candidate evicted at the
// watermark and re-observed restarts its joint counts from zero, so
// under prune pressure its reported presence undercounts the unpruned
// run. The bias is intentional (tombstones would unbound the table);
// this test fails if either implementation's prune behavior drifts.
func TestPruneBiasRegression(t *testing.T) {
	// A three-phase trace for observer 0x80. Phase 1 shows the victim
	// (0x2000 — deliberately the highest address, so it loses every
	// equal-presence prune tie) exactly once. The flood phase fills each
	// window with seven steady PCs; their candidate refs push the live
	// table past the 2×MaxCandidates watermark and the presence-tied
	// victim is pruned. Phase 3 re-observes the victim, whose counts
	// restart from zero.
	tr := trace.New("prune-bias", 0)
	phase := func(reps int) {
		for i := 0; i < reps; i++ {
			tr.Append(rec(0x2000, true))
			tr.Append(rec(0x80, true))
		}
	}
	flood := func(iters int) {
		for i := 0; i < iters; i++ {
			for j := 0; j < 7; j++ {
				tr.Append(rec(trace.Addr(0x1000+4*uint32(j)), j%2 == 0))
			}
			tr.Append(rec(0x80, false))
		}
	}
	phase(1)
	flood(10)
	phase(40)

	victim := Ref{PC: 0x2000, Scheme: Occurrence, Tag: 0}
	presenceOf := func(cands map[trace.Addr]*Candidates) (uint32, bool) {
		c := cands[0x80]
		for i, r := range c.Refs {
			if r == victim {
				// Presence is not exported; the profile score of an
				// always-agreeing candidate equals total correct, which
				// moves with its observed count. Compare scores instead.
				return c.Scores[i], true
			}
		}
		return 0, false
	}

	unpruned := ReferenceProfileCandidates(tr, OracleConfig{WindowLen: 8})
	pruned := ReferenceProfileCandidates(tr, OracleConfig{WindowLen: 8, MaxCandidates: 8})

	su, okU := presenceOf(unpruned)
	sp, okP := presenceOf(pruned)
	if !okU || !okP {
		t.Fatalf("victim ref not in beam: unpruned=%v pruned=%v", okU, okP)
	}
	if sp >= su {
		t.Errorf("prune bias vanished: pruned score %d >= unpruned score %d "+
			"(counts no longer restart from zero after eviction?)", sp, su)
	}

	// Both implementations must agree on the biased result exactly.
	for _, cfg := range []OracleConfig{
		{WindowLen: 8},
		{WindowLen: 8, MaxCandidates: 8},
	} {
		mustEqualCandidates(t, Oracle(tr, OracleOptions{OracleConfig: cfg, Stage: StageProfile}).Candidates, ReferenceProfileCandidates(tr, cfg))
	}
}
