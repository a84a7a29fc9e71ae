package core

import (
	"fmt"
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
)

// Kernel-contract tests for the selective predictor: SimulateBlock must
// be observationally identical to the scalar Predict/Update pair, so the
// two may interleave on one instance, and chunked replay through the
// streaming engine must equal one in-memory run.

// selKernelCase is one predictor under test: a trace and an assignment
// mixing oracle-selected refs with hand-written ones that reach past
// MaxTag, name a PC absent from the trace, and leave branches unassigned.
type selKernelCase struct {
	tr     *trace.Trace
	assign Assignment
}

func selKernelCases(t *testing.T) []selKernelCase {
	t.Helper()
	var out []selKernelCase
	for _, tr := range []*trace.Trace{randomTrace(11, 20_000, 24), selSweepTrace(3000)} {
		sels := Oracle(tr, OracleOptions{OracleConfig: OracleConfig{WindowLen: 16}})
		assign := Assignment{}
		for pc, refs := range sels.BySize[3] {
			assign[pc] = refs
		}
		for _, pc := range tr.Packed().Addrs()[:2] {
			assign[pc] = []Ref{{PC: 0xDEAD0, Scheme: Occurrence, Tag: 0}, {PC: pc, Scheme: BackwardCount, Tag: MaxTag + 3}}
		}
		out = append(out, selKernelCase{tr: tr, assign: assign})
	}
	return out
}

// selScalar replays records [lo, hi) through p's Predict/Update pair.
func selScalar(p *Selective, recs []trace.Record, lo, hi int) (map[trace.Addr]int, int) {
	perPC := map[trace.Addr]int{}
	total := 0
	for _, r := range recs[lo:hi] {
		if p.Predict(r) == r.Taken {
			perPC[r.PC]++
			total++
		}
		p.Update(r)
	}
	return perPC, total
}

// selKernel replays records [lo, hi) through p's SimulateBlock in
// chunks.
func selKernel(p *Selective, pt *trace.Packed, lo, hi, chunk int) (map[trace.Addr]int, int) {
	correct := make([]int32, pt.NumBranches())
	total := 0
	for at := lo; at < hi; at += chunk {
		total += p.SimulateBlock(selBlockOf(pt, at, min(at+chunk, hi)), correct)
	}
	perPC := map[trace.Addr]int{}
	for id, c := range correct {
		if c != 0 {
			perPC[pt.Addrs()[id]] = int(c)
		}
	}
	return perPC, total
}

func sameSelCounts(t *testing.T, label string, want map[trace.Addr]int, wantTotal int, got map[trace.Addr]int, gotTotal int) {
	t.Helper()
	if gotTotal != wantTotal {
		t.Errorf("%s: %d correct, want %d", label, gotTotal, wantTotal)
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d branches with correct predictions, want %d", label, len(got), len(want))
	}
	for pc, c := range want {
		if got[pc] != c {
			t.Errorf("%s: branch %#x: %d correct, want %d", label, uint32(pc), got[pc], c)
		}
	}
}

// TestSelectiveKernelScalarInterleaving pins the kernel against the
// scalar pair in both modes, including across scalar-then-kernel and
// kernel-then-scalar hand-offs on one instance mid-trace.
func TestSelectiveKernelScalarInterleaving(t *testing.T) {
	for ci, c := range selKernelCases(t) {
		pt := c.tr.Packed()
		recs := recordsOf(c.tr)
		half := len(recs) / 2
		for _, mode := range []Mode{ModeDirection, ModePresence} {
			t.Run(fmt.Sprintf("case%d/%s", ci, mode), func(t *testing.T) {
				mk := func() *Selective { return NewSelectiveMode("sel", 16, c.assign, mode) }
				want, wantTotal := selScalar(mk(), recs, 0, len(recs))

				got, gotTotal := selKernel(mk(), pt, 0, len(recs), 4096)
				sameSelCounts(t, "kernel", want, wantTotal, got, gotTotal)

				p := mk()
				first, firstTotal := selScalar(p, recs, 0, half)
				second, secondTotal := selKernel(p, pt, half, len(recs), 500)
				for pc, n := range second {
					first[pc] += n
				}
				sameSelCounts(t, "scalar-then-kernel", want, wantTotal, first, firstTotal+secondTotal)

				q := mk()
				kFirst, kTotal := selKernel(q, pt, 0, half, 500)
				sSecond, sTotal := selScalar(q, recs, half, len(recs))
				for pc, n := range sSecond {
					kFirst[pc] += n
				}
				sameSelCounts(t, "kernel-then-scalar", want, wantTotal, kFirst, kTotal+sTotal)
			})
		}
	}
}

// TestSelectiveSimulateBlocksChunks pins the streaming engine's chunked
// kernel replay to one in-memory run and to the reference loop, per
// branch, at chunk sizes from a single record up.
func TestSelectiveSimulateBlocksChunks(t *testing.T) {
	for ci, c := range selKernelCases(t) {
		mk := func() []bp.Predictor {
			return []bp.Predictor{
				NewSelective("sel-dir", 16, c.assign),
				NewSelectiveMode("sel-pres", 8, c.assign, ModePresence),
			}
		}
		want := sim.Simulate(c.tr, mk(), sim.Options{ForceReference: true}).Results
		mem := sim.Simulate(c.tr, mk(), sim.Options{}).Results
		for i := range want {
			sameResult(t, fmt.Sprintf("case%d in-memory", ci), want[i], mem[i])
		}
		for _, chunk := range []int{1, 7, 4096} {
			out, err := sim.SimulateBlocks(c.tr.Packed().Blocks(chunk), mk(), sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				sameResult(t, fmt.Sprintf("case%d chunk=%d", ci, chunk), want[i], out.Results[i])
			}
		}
	}
}

// sameResult fails unless two simulation results agree in total and per
// branch.
func sameResult(t *testing.T, label string, want, got *sim.Result) {
	t.Helper()
	if got.Correct != want.Correct || got.Total != want.Total {
		t.Errorf("%s %s: %d/%d correct, want %d/%d", label, want.Predictor, got.Correct, got.Total, want.Correct, want.Total)
	}
	if len(got.PerBranch) != len(want.PerBranch) {
		t.Errorf("%s %s: %d branches, want %d", label, want.Predictor, len(got.PerBranch), len(want.PerBranch))
	}
	for pc, acc := range want.PerBranch {
		if g := got.Branch(pc); g != *acc {
			t.Errorf("%s %s: branch %#x: %+v, want %+v", label, want.Predictor, uint32(pc), g, *acc)
		}
	}
}

// TestSelectiveSweepMatchesKernelRuns pins the fused grid, through
// SimulateSweep and through SweepBlock at chunk sizes from a single
// record up, to independent kernel runs of each config's predictor.
func TestSelectiveSweepMatchesKernelRuns(t *testing.T) {
	for ci, c := range selKernelCases(t) {
		cfgs := []SelectiveConfig{
			{Name: "w4", Window: 4, Assign: c.assign},
			{Name: "w16", Window: 16, Assign: c.assign},
			{Name: "w32-pres", Window: 32, Assign: c.assign, Mode: ModePresence},
			{Name: "w64", Window: 64, Assign: c.assign},
		}
		out := sim.SimulateSweep(c.tr, NewSelectiveSweep("sel", cfgs), sim.Options{})
		for i, cfg := range cfgs {
			r := sim.Simulate(c.tr, []bp.Predictor{NewSelectiveMode(cfg.Name, cfg.Window, cfg.Assign, cfg.Mode)}, sim.Options{}).Results[0]
			if out.Correct[i] != int64(r.Correct) {
				t.Errorf("case%d %s: sweep %d correct, kernel run %d", ci, cfg.Name, out.Correct[i], r.Correct)
			}
		}
		pt := c.tr.Packed()
		for _, chunk := range []int{1, 7, 4096} {
			got := selSweepTotals(NewSelectiveSweep("sel", cfgs), pt, chunk)
			for i := range cfgs {
				if int64(got[i]) != out.Correct[i] {
					t.Errorf("case%d chunk=%d %s: %d correct, SimulateSweep %d", ci, chunk, cfgs[i].Name, got[i], out.Correct[i])
				}
			}
		}
	}
}

// TestSelectiveKernelAllocs pins steady-state SimulateBlock at zero
// allocations: every column, slot and counter is created by the
// extension step on first sight of a dense ID.
func TestSelectiveKernelAllocs(t *testing.T) {
	c := selKernelCases(t)[0]
	pt := c.tr.Packed()
	p := NewSelective("sel", 16, c.assign)
	correct := make([]int32, pt.NumBranches())
	p.SimulateBlock(selBlockOf(pt, 0, pt.Len()), correct)
	blk := selBlockOf(pt, pt.Len()/4, pt.Len()/2)
	if n := testing.AllocsPerRun(10, func() { p.SimulateBlock(blk, correct) }); n != 0 {
		t.Errorf("%.1f allocs per steady-state SimulateBlock, want 0", n)
	}
}
