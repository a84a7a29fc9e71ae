// Conformance suite for the predictor determinism contract: bplint's
// rules (det-time, det-rand, ctr-saturate) assume every registered
// predictor is a pure function of its construction parameters and the
// committed branch stream. This test executes that contract — the same
// trace replayed into two fresh instances of every spec in the registry
// must produce bit-identical prediction sequences.
package bp_test

import (
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/trace"
	"branchcorr/internal/workloads"
)

// conformanceTrace is a real workload trace (gcc stand-in: the hardest,
// most varied branch population) at a length that warms every predictor
// table.
func conformanceTrace(t *testing.T) *trace.Trace {
	t.Helper()
	w, err := workloads.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	return w.Generate(20_000)
}

// replay drives one predictor over the trace and returns the number of
// correct predictions plus a fingerprint of the full prediction
// sequence (FNV-1a over the prediction bits), so two replays agreeing on
// accuracy but diverging mid-stream still fail.
func replay(p bp.Predictor, tr *trace.Trace) (correct int, fingerprint uint64) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	fingerprint = offset64
	for _, rec := range recordsOf(tr) {
		pred := p.Predict(rec)
		p.Update(rec)
		bit := byte(0)
		if pred {
			bit = 1
		}
		fingerprint = (fingerprint ^ uint64(bit)) * prime64
		if pred == rec.Taken {
			correct++
		}
	}
	return correct, fingerprint
}

// TestPredictorDeterminismConformance replays the same trace twice into
// fresh instances of every registered spec and asserts bit-identical
// behavior. A predictor that reads the clock, shared global state, or
// unseeded randomness fails here even if its accuracy looks plausible.
func TestPredictorDeterminismConformance(t *testing.T) {
	tr := conformanceTrace(t)
	stats := trace.Summarize(tr)
	env := bp.Env{Stats: stats, Trace: tr}
	for _, spec := range bp.KnownSpecs() {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			mk := func() bp.Predictor {
				p, err := bp.Parse(spec, env)
				if err != nil {
					t.Fatalf("Parse(%q): %v", spec, err)
				}
				return p
			}
			a, b := mk(), mk()
			if an, bn := a.Name(), b.Name(); an != bn {
				t.Fatalf("fresh instances disagree on Name: %q vs %q", an, bn)
			}
			correctA, fpA := replay(a, tr)
			correctB, fpB := replay(b, tr)
			if correctA != correctB || fpA != fpB {
				t.Errorf("replays diverge: correct %d vs %d, fingerprint %#x vs %#x",
					correctA, correctB, fpA, fpB)
			}
			if correctA == 0 {
				t.Errorf("predictor never correct over %d branches — broken replay", tr.Len())
			}
		})
	}
}

// TestConformanceCoversRegistry pins the conformance suite to the
// registry size: adding a predictor family to KnownSpecs without keeping
// it parseable (or vice versa) fails loudly here.
func TestConformanceCoversRegistry(t *testing.T) {
	specs := bp.KnownSpecs()
	if len(specs) < 20 {
		t.Fatalf("registry shrank to %d specs", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s] {
			t.Errorf("duplicate spec %q in registry", s)
		}
		seen[s] = true
	}
}
