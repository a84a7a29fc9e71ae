package core

import (
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
)

// classTrace builds a trace with one branch per expected class:
//
//	0x10: always taken            -> ideal-static (unclassified)
//	0x20: for-loop, trip count 6  -> loop
//	0x30: period-7 pattern        -> repeating (fixed-k)
//	0x40: LFSR, period 63         -> non-repeating (needs local history)
func classTrace(iters int) *trace.Trace {
	tr := trace.New("classes", 0)
	pat := []bool{true, false, false, true, true, false, true} // period 7
	lfsr := uint8(0x2A)                                        // 6-bit LFSR, period 63
	for i := 0; i < iters; i++ {
		tr.Append(rec(0x10, true))
		tr.Append(trace.Record{PC: 0x20, Taken: i%7 != 6, Backward: true})
		tr.Append(rec(0x30, pat[i%7]))
		bit := (lfsr ^ (lfsr >> 1)) & 1
		lfsr = lfsr>>1 | bit<<5
		tr.Append(rec(0x40, bit == 1))
	}
	return tr
}

func TestClassifyPerAddress(t *testing.T) {
	tr := classTrace(4000)
	cl := ClassifyPerAddress(tr, ClassifyConfig{})
	want := map[trace.Addr]PAClass{
		0x10: ClassStatic,
		0x20: ClassLoop,
		0x30: ClassRepeating,
		0x40: ClassNonRepeating,
	}
	for pc, wantClass := range want {
		if got := cl.Class[pc]; got != wantClass {
			t.Errorf("class of 0x%x = %v, want %v", uint32(pc), got, wantClass)
		}
	}
	// Weights must partition the trace.
	sum := 0
	for c := ClassStatic; c < numPAClasses; c++ {
		sum += cl.DynWeight[c]
	}
	if sum != cl.Total || cl.Total != tr.Len() {
		t.Errorf("weights sum to %d, total %d, trace %d", sum, cl.Total, tr.Len())
	}
	// Each branch executes equally often: each class gets 1/4.
	for c := ClassStatic; c < numPAClasses; c++ {
		if f := cl.Frac(c); f != 0.25 {
			t.Errorf("Frac(%v) = %v, want 0.25", c, f)
		}
	}
	// The only static-class branch is 100% biased.
	if cl.StaticHighBiasFrac() != 1.0 {
		t.Errorf("StaticHighBiasFrac = %v, want 1", cl.StaticHighBiasFrac())
	}
}

func TestClassifyWeaklyBiasedUnpredictable(t *testing.T) {
	// A 60/40 pseudo-random branch: no class predictor beats its static
	// majority reliably, and it is NOT >99% biased.
	tr := trace.New("weak", 0)
	rng := lcg(77)
	for i := 0; i < 8000; i++ {
		x := rng.bit() // ~50%
		y := rng.bit()
		tr.Append(rec(0x50, x || (y && rng.bit()))) // ~62% taken, iid
	}
	cl := ClassifyPerAddress(tr, ClassifyConfig{})
	if got := cl.Class[0x50]; got != ClassStatic {
		// An adaptive predictor can get lucky on an iid branch, but over
		// 8000 samples the static majority should win.
		t.Errorf("class of weakly biased iid branch = %v, want ideal-static", got)
	}
	if cl.StaticHighBiasFrac() != 0 {
		t.Errorf("StaticHighBiasFrac = %v, want 0 (branch is weakly biased)", cl.StaticHighBiasFrac())
	}
}

func TestClassifyBlockPattern(t *testing.T) {
	// 4-taken/3-not-taken blocks: block predictor captures it exactly;
	// it is also a period-7 fixed pattern, both in the repeating class.
	tr := trace.New("blocks", 0)
	for i := 0; i < 3000; i++ {
		tr.Append(rec(0x60, i%7 < 4))
	}
	cl := ClassifyPerAddress(tr, ClassifyConfig{})
	if got := cl.Class[0x60]; got != ClassRepeating {
		t.Errorf("class of block-pattern branch = %v, want repeating", got)
	}
}

func TestRepeatingCorrectIsMaxOfSubclasses(t *testing.T) {
	tr := classTrace(500)
	cl := ClassifyPerAddress(tr, ClassifyConfig{})
	for _, pc := range []trace.Addr{0x10, 0x20, 0x30, 0x40} {
		rep := cl.RepeatingCorrect(pc)
		block := cl.Block.Branch(pc).Correct
		fixed := cl.Fixed[pc].Correct
		want := block
		if fixed > want {
			want = fixed
		}
		if rep != want {
			t.Errorf("RepeatingCorrect(0x%x) = %d, want max(%d,%d)", uint32(pc), rep, block, fixed)
		}
		pa := cl.PerAddressBestCorrect(pc)
		if pa < rep || pa < cl.Loop.Branch(pc).Correct || pa < cl.IFPAs.Branch(pc).Correct {
			t.Errorf("PerAddressBestCorrect(0x%x) = %d below a component", uint32(pc), pa)
		}
	}
}

func TestClassifyConfigDefaults(t *testing.T) {
	cfg := ClassifyConfig{}.withDefaults()
	if cfg.IFPAsHistoryBits != 16 || cfg.HighBias != 0.99 {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestPAClassStrings(t *testing.T) {
	want := map[PAClass]string{
		ClassStatic:       "ideal-static",
		ClassLoop:         "loop",
		ClassRepeating:    "repeating-pattern",
		ClassNonRepeating: "non-repeating-pattern",
		PAClass(99):       "unknown",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("PAClass(%d).String() = %q, want %q", c, c.String(), s)
		}
	}
}

func TestCategoryStrings(t *testing.T) {
	want := map[Category]string{
		CatStatic:     "ideal-static",
		CatGlobal:     "global",
		CatPerAddress: "per-address",
		Category(99):  "unknown",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("Category(%d).String() = %q, want %q", c, c.String(), s)
		}
	}
}

func TestSplitBest(t *testing.T) {
	// Three branches engineered so each category wins exactly one:
	//	0x10 always-taken (static wins ties)
	//	0x20 copies a random earlier branch (global wins)
	//	0x30 for-loop with a long trip count (per-address wins over a
	//	     short-history global)
	tr := trace.New("split", 0)
	rng := lcg(55)
	for i := 0; i < 6000; i++ {
		y := rng.bit()
		tr.Append(rec(0x100, y))
		tr.Append(rec(0x10, true))
		tr.Append(rec(0x20, y))
		tr.Append(trace.Record{PC: 0x30, Taken: i%40 != 39, Backward: true})
	}
	stats := trace.Summarize(tr)
	rs := sim.Simulate(tr, []bp.Predictor{bp.NewIdealStatic(stats), bp.NewGshare(10), bp.NewLoop()}, sim.Options{}).Results
	static, gshare, loop := rs[0], rs[1], rs[2]
	split := SplitBest(stats, static,
		func(pc trace.Addr) int { return gshare.Branch(pc).Correct },
		func(pc trace.Addr) int { return loop.Branch(pc).Correct },
		0.99)
	if got := split.Category[0x10]; got != CatStatic {
		t.Errorf("0x10 category = %v, want static", got)
	}
	if got := split.Category[0x20]; got != CatGlobal {
		t.Errorf("0x20 category = %v, want global", got)
	}
	if got := split.Category[0x30]; got != CatPerAddress {
		t.Errorf("0x30 category = %v, want per-address", got)
	}
	sum := 0
	for c := CatStatic; c < numCategories; c++ {
		sum += split.Weight[c]
	}
	if sum != split.Total || split.Total != tr.Len() {
		t.Errorf("weights sum %d, total %d, trace %d", sum, split.Total, tr.Len())
	}
	if split.Frac(CatStatic)+split.Frac(CatGlobal)+split.Frac(CatPerAddress) < 0.999 {
		t.Error("category fractions do not sum to 1")
	}
}

func TestSplitBestEmptyAndZeroFracs(t *testing.T) {
	var cl PAClassification
	if cl.Frac(ClassLoop) != 0 || cl.StaticHighBiasFrac() != 0 {
		t.Error("zero classification fracs should be 0")
	}
	var cs CategorySplit
	if cs.Frac(CatGlobal) != 0 || cs.StaticHighBiasFrac() != 0 {
		t.Error("zero split fracs should be 0")
	}
}
