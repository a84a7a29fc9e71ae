// Runtime allocation gate for the batched kernels. The bplint
// kernel-purity rule proves the hot loops allocation-free by dataflow;
// this suite cross-checks the claim with testing.AllocsPerRun. Each
// dense-table kernel family may allocate only its per-block setup
// slices (the O(#branches) per-ID resolves, counted exactly here) —
// never per-record state — so the per-call count must not move when the
// simulated range quadruples. The interference-free family (ifgshare,
// ifpas) is deliberately absent: its counter tables are maps keyed by
// (address, history) — that unbounded state is the point of the variant
// — so map growth allocates data-dependently; the kernel-purity
// findings those accesses would raise are suppressed with justified
// //bplint:ignore directives in kernel.go instead.
package bp_test

import (
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/trace"
)

func TestKernelSimulateBlockAllocs(t *testing.T) {
	tr := kernelRandomTrace(31, 40_000)
	pt := tr.Packed()
	stats := trace.Summarize(tr)
	families := []struct {
		spec  string
		setup float64 // exact per-block setup allocations
	}{
		{"taken", 0},
		{"not-taken", 0},
		{"btfnt", 0},
		{"bimodal:12", 1},   // pcxOf slot slice
		{"gshare:14", 1},    // pcxOf
		{"gas:12,4", 2},     // pcxOf + per-ID PHT bank resolve
		{"pas:10,8,4", 3},   // pcxOf + per-ID BHT slots + PHT banks
		{"ideal-static", 1}, // per-ID predicted-direction resolve
	}
	correct := make([]int32, pt.NumBranches())
	for _, f := range families {
		t.Run(f.spec, func(t *testing.T) {
			p, err := bp.Parse(f.spec, bp.Env{Stats: stats})
			if err != nil {
				t.Fatalf("Parse(%q): %v", f.spec, err)
			}
			k, ok := p.(bp.KernelPredictor)
			if !ok {
				t.Fatalf("%q does not implement KernelPredictor", f.spec)
			}
			quarter := blockOf(pt, 0, tr.Len()/4)
			full := blockOf(pt, 0, tr.Len())
			k.SimulateBlock(full, correct)
			short := testing.AllocsPerRun(10, func() { k.SimulateBlock(quarter, correct) })
			long := testing.AllocsPerRun(10, func() { k.SimulateBlock(full, correct) })
			if short != f.setup || long != f.setup {
				t.Errorf("allocs per block = %.1f (quarter trace) / %.1f (full trace), want exactly %.1f at any range",
					short, long, f.setup)
			}
		})
	}
}
