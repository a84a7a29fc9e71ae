package core

import (
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
)

func TestSubsetScore(t *testing.T) {
	// Two patterns: pattern 0 majority taken (5 vs 2), pattern 1 majority
	// not-taken (1 vs 4): score = 5 + 4.
	flat := []uint32{5, 2, 1, 4}
	if got := subsetScore(flat); got != 9 {
		t.Errorf("subsetScore = %d, want 9", got)
	}
}

func TestSelectionsAreMonotone(t *testing.T) {
	// By construction the chosen set for size k+1 never scores below the
	// size-k choice; spot-check sizes on a correlated trace by comparing
	// assignment sizes.
	tr := correlatedPair(2000, 2)
	sel := Oracle(tr, OracleOptions{OracleConfig: OracleConfig{WindowLen: 16, TopK: 8}})
	for pc := range sel.BySize[1] {
		n1, n2, n3 := len(sel.BySize[1][pc]), len(sel.BySize[2][pc]), len(sel.BySize[3][pc])
		if n1 > 1 || n2 > 2 || n3 > 3 {
			t.Fatalf("oversized assignment for 0x%x: %d/%d/%d", uint32(pc), n1, n2, n3)
		}
		if n2 < n1 || n3 < n2 {
			t.Fatalf("assignment sizes shrink for 0x%x: %d/%d/%d", uint32(pc), n1, n2, n3)
		}
	}
}

func TestProfileCandidatesFindsCorrelatedBranch(t *testing.T) {
	tr := correlatedPair(3000, 3)
	cands := Oracle(tr, OracleOptions{OracleConfig: OracleConfig{WindowLen: 16}, Stage: StageProfile}).Candidates
	c := cands[0x200]
	if c == nil || len(c.Refs) == 0 {
		t.Fatal("no candidates for X")
	}
	top := c.Refs[0]
	if top.PC != 0x100 {
		t.Errorf("top candidate = %v, want branch 0x100", top)
	}
	if c.Total != 3000 {
		t.Errorf("Total = %d, want 3000", c.Total)
	}
	// The top score should be near-perfect: knowing Y determines X.
	if float64(c.Scores[0])/float64(c.Total) < 0.99 {
		t.Errorf("top candidate score = %d/%d, want near-perfect", c.Scores[0], c.Total)
	}
}

func TestProfileCandidatesSchemeFilter(t *testing.T) {
	tr := correlatedPair(500, 1)
	cands := Oracle(tr, OracleOptions{OracleConfig: OracleConfig{WindowLen: 8, TopK: 8, Schemes: []Scheme{BackwardCount}}, Stage: StageProfile}).Candidates
	for _, c := range cands {
		for _, r := range c.Refs {
			if r.Scheme != BackwardCount {
				t.Fatalf("scheme filter leaked ref %v", r)
			}
		}
	}
}

func TestBuildSelectiveEndToEnd(t *testing.T) {
	tr := correlatedPair(4000, 3)
	sel := Oracle(tr, OracleOptions{OracleConfig: OracleConfig{WindowLen: 16}})
	for k := 1; k <= MaxSelectiveRefs; k++ {
		refs := sel.BySize[k][0x200]
		if len(refs) == 0 {
			t.Fatalf("size %d: no refs chosen for X", k)
		}
		if len(refs) > k {
			t.Fatalf("size %d: %d refs chosen", k, len(refs))
		}
		p := NewSelective("sel", 16, sel.BySize[k])
		res := sim.Simulate(tr, []bp.Predictor{p}, sim.Options{}).Results[0]
		if acc := res.Branch(0x200).Accuracy(); acc < 0.99 {
			t.Errorf("size %d: oracle-selected accuracy on X = %.3f", k, acc)
		}
	}
}

func TestOracleAndCorrelationNeedsTwoRefs(t *testing.T) {
	// X = Y AND Z (figure 1c): the 2-ref oracle selection must include
	// both Y and Z and predict near-perfectly; 1-ref cannot.
	tr := trace.New("and", 0)
	ry, rz := lcg(21), lcg(22)
	for i := 0; i < 8000; i++ {
		y, z := ry.bit(), rz.bit()
		tr.Append(rec(0x100, y))
		tr.Append(rec(0x104, z))
		tr.Append(rec(0x200, y && z))
	}
	sel := Oracle(tr, OracleOptions{OracleConfig: OracleConfig{WindowLen: 16}})
	refs2 := sel.BySize[2][0x200]
	pcs := map[trace.Addr]bool{}
	for _, r := range refs2 {
		pcs[r.PC] = true
	}
	if !pcs[0x100] || !pcs[0x104] {
		t.Errorf("2-ref selection = %v, want refs to 0x100 and 0x104", refs2)
	}
	acc := func(k int) float64 {
		res := sim.Simulate(tr, []bp.Predictor{NewSelective("s", 16, sel.BySize[k])}, sim.Options{}).Results[0]
		return res.Branch(0x200).Accuracy()
	}
	a1, a2 := acc(1), acc(2)
	if a2 < 0.99 {
		t.Errorf("2-ref accuracy = %.3f, want >= 0.99", a2)
	}
	if a1 > a2-0.1 {
		t.Errorf("1-ref (%.3f) should trail 2-ref (%.3f) clearly", a1, a2)
	}
}

func TestOracleMonotoneInSize(t *testing.T) {
	// Selection quality must not degrade with more refs on any of a few
	// synthetic traces (profile-score selection guarantees it for the
	// profile metric; check the adaptive simulation tracks it within
	// noise).
	tr := trace.New("mix", 0)
	ry, rz, rn := lcg(31), lcg(32), lcg(33)
	for i := 0; i < 6000; i++ {
		y, z := ry.bit(), rz.bit()
		tr.Append(rec(0x100, y))
		tr.Append(rec(0x104, z))
		tr.Append(rec(0x108, rn.bit()))
		tr.Append(rec(0x200, y != z)) // XOR: needs both
	}
	sel := Oracle(tr, OracleOptions{OracleConfig: OracleConfig{WindowLen: 16}})
	var accs [4]float64
	for k := 1; k <= 3; k++ {
		res := sim.Simulate(tr, []bp.Predictor{NewSelective("s", 16, sel.BySize[k])}, sim.Options{}).Results[0]
		accs[k] = res.Branch(0x200).Accuracy()
	}
	if accs[2] < 0.99 || accs[3] < 0.99 {
		t.Errorf("XOR accuracies: 2-ref %.3f, 3-ref %.3f, want >= 0.99", accs[2], accs[3])
	}
	if accs[1] > 0.65 {
		t.Errorf("1-ref on XOR = %.3f, want near 0.5 (no single ref helps)", accs[1])
	}
}

func TestOracleConfigDefaults(t *testing.T) {
	cfg := OracleConfig{}.withDefaults()
	if cfg.WindowLen != 16 || cfg.TopK != 16 || cfg.MaxCandidates != 2048 {
		t.Errorf("defaults = %+v", cfg)
	}
	if !cfg.schemeAllowed(Occurrence) || !cfg.schemeAllowed(BackwardCount) {
		t.Error("empty scheme list should allow both")
	}
	cfg.Schemes = []Scheme{Occurrence}
	if !cfg.schemeAllowed(Occurrence) || cfg.schemeAllowed(BackwardCount) {
		t.Error("scheme filter wrong")
	}
}

func TestOracleTopKLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("TopK beyond the scratch limit should panic")
		}
	}()
	Oracle(trace.New("x", 0), OracleOptions{OracleConfig: OracleConfig{TopK: maxTopK + 1}, Stage: StageProfile})
}

func TestCandidatePruning(t *testing.T) {
	// Thousands of distinct noise branches precede X; with a small
	// candidate cap the profile must survive (and still find Y, which
	// appears every time while noise branches are one-shot).
	tr := trace.New("prune", 0)
	rng := lcg(41)
	pc := trace.Addr(0x1000)
	for i := 0; i < 3000; i++ {
		y := rng.bit()
		tr.Append(rec(0x100, y))
		tr.Append(rec(pc, true)) // fresh PC each iteration
		pc += 4
		tr.Append(rec(0x200, y))
	}
	cands := Oracle(tr, OracleOptions{OracleConfig: OracleConfig{WindowLen: 8, TopK: 2, MaxCandidates: 64}, Stage: StageProfile}).Candidates
	c := cands[0x200]
	if c == nil || len(c.Refs) == 0 || c.Refs[0].PC != 0x100 {
		t.Fatalf("pruned profile lost the correlated branch: %+v", c)
	}
}

func TestProfileScoreBounds(t *testing.T) {
	// Property: every candidate's profile score is at most the branch's
	// total occurrences and at least the ideal-static correct count is a
	// lower bound for the TOP candidate (3-valued info can only help).
	tr := correlatedPair(1000, 2)
	cands := Oracle(tr, OracleOptions{OracleConfig: OracleConfig{WindowLen: 8, TopK: 8}, Stage: StageProfile}).Candidates
	st := trace.Summarize(tr)
	for pc, c := range cands {
		site := st.Sites[pc]
		maj := site.Taken
		if nt := site.Count - site.Taken; nt > maj {
			maj = nt
		}
		for i, s := range c.Scores {
			if int(s) > site.Count {
				t.Errorf("branch 0x%x cand %d: score %d > total %d", uint32(pc), i, s, site.Count)
			}
		}
		if len(c.Scores) > 0 && int(c.Scores[0]) < maj {
			t.Errorf("branch 0x%x: top score %d below static majority %d", uint32(pc), c.Scores[0], maj)
		}
	}
}
