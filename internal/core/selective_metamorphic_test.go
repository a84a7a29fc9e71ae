package core

import (
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/sim"
	"branchcorr/internal/workloads"
)

// TestEmptySelectionIsBimodal is a metamorphic identity that shares no
// assumption with the reference loops: a selective predictor with no
// refs assigned keeps one pattern counter per branch, so it must be a
// per-address 2-bit counter — a bimodal table large enough that no two
// workload branches alias. It checks the scalar predictor's per-branch
// accounts through sim.Simulate and the fused SelectiveSweep at two
// window lengths through sim.SimulateSweep, on every workload trace.
func TestEmptySelectionIsBimodal(t *testing.T) {
	const n = 50_000
	for _, w := range workloads.All() {
		tr := w.Generate(n)
		out := sim.Simulate(tr, []bp.Predictor{
			NewSelective("empty-selective", 16, Assignment{}),
			bp.NewBimodal(24),
		}, sim.Options{}).Results
		sel, bim := out[0], out[1]
		if sel.Correct != bim.Correct || sel.Total != bim.Total {
			t.Errorf("%s: selective %d/%d correct, bimodal %d/%d",
				w.Name(), sel.Correct, sel.Total, bim.Correct, bim.Total)
		}
		if len(sel.PerBranch) != len(bim.PerBranch) {
			t.Errorf("%s: %d selective branches, %d bimodal", w.Name(), len(sel.PerBranch), len(bim.PerBranch))
		}
		for pc, acc := range sel.PerBranch {
			if got := bim.Branch(pc); got != *acc {
				t.Errorf("%s: branch %#x: selective %+v, bimodal %+v", w.Name(), uint32(pc), *acc, got)
			}
		}

		sweep := sim.SimulateSweep(tr, NewSelectiveSweep("empty-selective-windows", []SelectiveConfig{
			{Name: "empty(8)", Window: 8, Assign: Assignment{}},
			{Name: "empty(32)", Window: 32, Assign: Assignment{}},
		}), sim.Options{})
		for c, name := range sweep.Configs {
			if sweep.Correct[c] != int64(bim.Correct) || sweep.Total != bim.Total {
				t.Errorf("%s: sweep %s %d/%d correct, bimodal %d/%d",
					w.Name(), name, sweep.Correct[c], sweep.Total, bim.Correct, bim.Total)
			}
		}
	}
}
