package core

import (
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
)

// lcg is a tiny deterministic pseudo-random bit source for test traces.
type lcg uint32

func (l *lcg) bit() bool {
	*l = *l*1664525 + 1013904223
	return *l&0x40000 != 0
}

// correlatedPair builds a trace where branch X (0x200) copies the outcome
// of the pseudo-random branch Y (0x100), with `gap` uncorrelated noise
// branches between them.
func correlatedPair(n, gap int) *trace.Trace {
	tr := trace.New("pair", 0)
	rng := lcg(42)
	noise := lcg(7)
	for i := 0; i < n; i++ {
		y := rng.bit()
		tr.Append(rec(0x100, y))
		for g := 0; g < gap; g++ {
			tr.Append(rec(trace.Addr(0x300+g*4), noise.bit()))
		}
		tr.Append(rec(0x200, y))
	}
	return tr
}

func accuracyOn(t *testing.T, tr *trace.Trace, p *Selective, pc trace.Addr, skip int) float64 {
	t.Helper()
	res := sim.Simulate(tr, []bp.Predictor{p}, sim.Options{}).Results[0]
	b := res.Branch(pc)
	if b.Total == 0 {
		t.Fatalf("branch 0x%x never executed", uint32(pc))
	}
	return b.Accuracy()
}

func TestSelectiveExploitsAssignedCorrelation(t *testing.T) {
	tr := correlatedPair(4000, 2)
	assign := Assignment{0x200: {Ref{0x100, Occurrence, 0}}}
	p := NewSelective("sel1", 16, assign)
	if acc := accuracyOn(t, tr, p, 0x200, 0); acc < 0.99 {
		t.Errorf("selective accuracy on X = %.3f, want >= 0.99", acc)
	}
}

func TestSelectiveWrongRefIsUseless(t *testing.T) {
	tr := correlatedPair(4000, 2)
	// Assign a noise branch instead of Y: accuracy should hover near 50%.
	assign := Assignment{0x200: {Ref{0x300, Occurrence, 0}}}
	p := NewSelective("sel-wrong", 16, assign)
	if acc := accuracyOn(t, tr, p, 0x200, 0); acc > 0.65 {
		t.Errorf("selective with useless ref = %.3f, want near 0.5", acc)
	}
}

func TestSelectiveEmptyAssignmentIsPerBranchCounter(t *testing.T) {
	// With no refs, each branch gets one private 2-bit counter: on an
	// always-taken branch that is near-perfect.
	tr := trace.New("bias", 0)
	for i := 0; i < 1000; i++ {
		tr.Append(rec(0x40, true))
	}
	p := NewSelective("sel0", 16, Assignment{})
	res := sim.Simulate(tr, []bp.Predictor{p}, sim.Options{}).Results[0]
	if res.Correct < 997 {
		t.Errorf("empty-assignment selective correct = %d/1000", res.Correct)
	}
}

func TestSelectiveAndCorrelation(t *testing.T) {
	// Figure 1c: X = Y AND Z. With refs to both Y and Z, X is perfectly
	// determined; with a ref to only one it is not.
	tr := trace.New("and", 0)
	ry, rz := lcg(1), lcg(2)
	for i := 0; i < 8000; i++ {
		y, z := ry.bit(), rz.bit()
		tr.Append(rec(0x100, y))
		tr.Append(rec(0x104, z))
		tr.Append(rec(0x200, y && z))
	}
	two := NewSelective("sel2", 16, Assignment{
		0x200: {Ref{0x100, Occurrence, 0}, Ref{0x104, Occurrence, 0}},
	})
	one := NewSelective("sel1", 16, Assignment{
		0x200: {Ref{0x100, Occurrence, 0}},
	})
	acc2 := accuracyOn(t, tr, two, 0x200, 0)
	acc1 := accuracyOn(t, tr, one, 0x200, 0)
	if acc2 < 0.99 {
		t.Errorf("2-ref selective on AND = %.3f, want >= 0.99", acc2)
	}
	// One ref sees Y only: when Y is taken, X is a coin flip on Z, so
	// accuracy ~ 75%.
	if acc1 > 0.85 {
		t.Errorf("1-ref selective on AND = %.3f, want < 0.85", acc1)
	}
	if acc2 <= acc1 {
		t.Error("2-ref selective should beat 1-ref on AND correlation")
	}
}

func TestSelectiveAbsentState(t *testing.T) {
	// Y appears only every other time before X; when absent, X is always
	// taken, when present X copies Y. The 3-valued state separates these
	// cases, so the selective predictor should be near-perfect.
	tr := trace.New("absent", 0)
	rng := lcg(3)
	noise := lcg(9)
	for i := 0; i < 6000; i++ {
		if i%2 == 0 {
			y := rng.bit()
			tr.Append(rec(0x100, y))
			tr.Append(rec(0x200, y))
		} else {
			// Push enough noise that no stale Y remains in the window.
			for g := 0; g < 17; g++ {
				tr.Append(rec(trace.Addr(0x300+g*4), noise.bit()))
			}
			tr.Append(rec(0x200, true))
		}
	}
	p := NewSelective("sel-abs", 16, Assignment{
		0x200: {Ref{0x100, Occurrence, 0}},
	})
	if acc := accuracyOn(t, tr, p, 0x200, 0); acc < 0.99 {
		t.Errorf("selective with absent state = %.3f, want >= 0.99", acc)
	}
}

func TestSelectiveLoopInstanceTags(t *testing.T) {
	// X's outcome equals Y's outcome from ONE occurrence back (not the
	// most recent): tag occ1 is required; occ0 carries no signal.
	tr := trace.New("lagged", 0)
	rng := lcg(5)
	prev := true
	for i := 0; i < 6000; i++ {
		y := rng.bit()
		tr.Append(rec(0x100, y))
		tr.Append(rec(0x200, prev)) // copies the PREVIOUS Y
		prev = y
	}
	right := NewSelective("occ1", 16, Assignment{0x200: {Ref{0x100, Occurrence, 1}}})
	wrong := NewSelective("occ0", 16, Assignment{0x200: {Ref{0x100, Occurrence, 0}}})
	accR := accuracyOn(t, tr, right, 0x200, 0)
	accW := accuracyOn(t, tr, wrong, 0x200, 0)
	if accR < 0.99 {
		t.Errorf("occ1-tagged selective = %.3f, want >= 0.99", accR)
	}
	if accW > 0.65 {
		t.Errorf("occ0-tagged selective = %.3f, want near 0.5", accW)
	}
}

func TestSelectiveBackwardTags(t *testing.T) {
	// A two-branch loop body: Y then a taken backward branch L each
	// iteration; X at loop exit... simpler: X's outcome equals Y from the
	// previous iteration, where iterations are delimited by taken
	// backward branches. BackwardCount tag 1 names "Y one iteration ago"
	// even though occurrence distance varies (noise inserted some
	// iterations).
	tr := trace.New("back", 0)
	rng := lcg(11)
	noise := lcg(13)
	prevY := true
	for i := 0; i < 6000; i++ {
		y := rng.bit()
		tr.Append(rec(0x100, y))
		if i%3 == 0 { // variable-length iteration bodies
			tr.Append(rec(0x180, noise.bit()))
		}
		tr.Append(rec(0x200, prevY)) // X copies last iteration's Y
		tr.Append(backTaken(0x1F0))  // loop-closing branch
		prevY = y
	}
	p := NewSelective("back1", 16, Assignment{
		// Y from the previous iteration: one taken-backward branch
		// between it and X.
		0x200: {Ref{0x100, BackwardCount, 1}},
	})
	if acc := accuracyOn(t, tr, p, 0x200, 0); acc < 0.99 {
		t.Errorf("backward-tagged selective = %.3f, want >= 0.99", acc)
	}
}

func TestSelectivePanicsOnOversizedAssignment(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for 4-ref assignment")
		}
	}()
	NewSelective("bad", 16, Assignment{
		0x10: make([]Ref, 4),
	})
}

// Update must work standalone (no preceding Predict) and produce the
// same training as the Predict+Update pairing the simulator uses.
func TestSelectiveUpdateWithoutPredict(t *testing.T) {
	tr := correlatedPair(3000, 2)
	assign := Assignment{0x200: {Ref{0x100, Occurrence, 0}}}
	paired := NewSelective("paired", 16, assign)
	solo := NewSelective("solo", 16, assign)
	for _, r := range recordsOf(tr) {
		paired.Predict(r)
		paired.Update(r)
		solo.Update(r) // no Predict call
	}
	// Both predictors must end in identical trained state: compare
	// predictions on a probe sweep.
	probe := correlatedPair(200, 2)
	for _, r := range recordsOf(probe) {
		if paired.Predict(r) != solo.Predict(r) {
			t.Fatalf("divergent state after training without Predict")
		}
		paired.Update(r)
		solo.Update(r)
	}
}

// The memoization must not leak across different branches between
// Predict and Update.
func TestSelectiveMemoizationDifferentPC(t *testing.T) {
	assign := Assignment{
		0x100: {Ref{0x200, Occurrence, 0}},
		0x200: {Ref{0x100, Occurrence, 0}},
	}
	p := NewSelective("memo", 8, assign)
	r1 := rec(0x100, true)
	r2 := rec(0x200, false)
	p.Predict(r1) // memoizes 0x100's pattern
	p.Update(r2)  // different PC: must recompute, not reuse
	p.Update(r1)
	// No assertion beyond "does not panic / trains the right tables":
	// verify both branches have their one-ref slots.
	for _, pc := range []trace.Addr{0x100, 0x200} {
		i, ok := p.slotOf.find(pc)
		if !ok || len(p.slots[i].refs) != 1 {
			t.Fatalf("branch %#x: slot found %v, refs %d", uint32(pc), ok, len(p.slots[i].refs))
		}
	}
}

func TestSelectiveName(t *testing.T) {
	p := NewSelective("sel(3,16)", 16, nil)
	if p.Name() != "sel(3,16)" {
		t.Errorf("Name = %q", p.Name())
	}
}

// recordsOf reads a trace back as records from its packed columns.
func recordsOf(tr *trace.Trace) []trace.Record {
	pt := tr.Packed()
	recs := make([]trace.Record, pt.Len())
	for i := range recs {
		recs[i] = pt.Record(i)
	}
	return recs
}
