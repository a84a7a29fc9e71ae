package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
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

// relabel rewrites every PC of tr through a strictly increasing
// bijection with uneven gaps. Order-preserving keeps every address
// tie-break (candidate ranking, pruning, canonical branch order) intact,
// so the analysis must commute with the relabeling.
func relabel(tr *trace.Trace, seed int64) (*trace.Trace, func(trace.Addr) trace.Addr) {
	pt := tr.Packed()
	pcs := append([]trace.Addr(nil), pt.Addrs()...)
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	rng := rand.New(rand.NewSource(seed))
	to := make(map[trace.Addr]trace.Addr, len(pcs))
	next := trace.Addr(0x10000)
	for _, pc := range pcs {
		next += trace.Addr(4 * (1 + rng.Intn(5)))
		to[pc] = next
	}
	out := trace.New(tr.Name(), tr.Len())
	for i := 0; i < pt.Len(); i++ {
		r := pt.Record(i)
		r.PC = to[r.PC]
		out.Append(r)
	}
	return out, func(pc trace.Addr) trace.Addr { return to[pc] }
}

// TestRelabelingCommutes is a metamorphic identity that shares no
// assumption with the reference loops: relabeling PCs through a strictly
// increasing bijection must map the oracle's selections one-to-one, and
// leave the selective predictors' per-branch accounts unchanged, on
// every workload trace.
func TestRelabelingCommutes(t *testing.T) {
	const n = 50_000
	for wi, w := range workloads.All() {
		tr := w.Generate(n)
		rt, f := relabel(tr, int64(wi))
		sels := Oracle(tr, OracleOptions{})
		rsels := Oracle(rt, OracleOptions{})
		for k := 1; k <= MaxSelectiveRefs; k++ {
			want := sels.BySize[k]
			got := rsels.BySize[k]
			if len(got) != len(want) {
				t.Errorf("%s size %d: %d assigned branches after relabeling, want %d", w.Name(), k, len(got), len(want))
			}
			for pc, refs := range want {
				mapped := make([]Ref, len(refs))
				for i, r := range refs {
					mapped[i] = Ref{PC: f(r.PC), Scheme: r.Scheme, Tag: r.Tag}
				}
				if !reflect.DeepEqual(got[f(pc)], mapped) {
					t.Errorf("%s size %d branch %#x: relabeled selection %v, want %v", w.Name(), k, uint32(pc), got[f(pc)], mapped)
				}
			}
		}
		mk := func(s *Selections) []bp.Predictor {
			return []bp.Predictor{
				NewSelective("sel1", 16, s.BySize[1]),
				NewSelective("sel3", 16, s.BySize[3]),
				NewSelectiveMode("pres3", 16, s.BySize[3], ModePresence),
			}
		}
		orig := sim.Simulate(tr, mk(sels), sim.Options{}).Results
		moved := sim.Simulate(rt, mk(rsels), sim.Options{}).Results
		for i := range orig {
			if moved[i].Correct != orig[i].Correct {
				t.Errorf("%s %s: %d correct after relabeling, want %d", w.Name(), orig[i].Predictor, moved[i].Correct, orig[i].Correct)
			}
			for pc, acc := range orig[i].PerBranch {
				if got := moved[i].Branch(f(pc)); got != *acc {
					t.Errorf("%s %s branch %#x: %+v after relabeling, want %+v", w.Name(), orig[i].Predictor, uint32(pc), got, *acc)
				}
			}
		}
	}
}
