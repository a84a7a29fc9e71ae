package core

import (
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
)

// selSweepTrace builds a deterministic trace exercising every selective
// mechanism at once: an occurrence-correlated pair (0x200 copies 0x100),
// a cross-iteration correlation over a taken backward loop branch
// (0x210 copies the previous iteration's 0x100), aliasing noise, and
// variable-length iteration bodies.
func selSweepTrace(iters int) *trace.Trace {
	tr := trace.New("sel-sweep", 0)
	rng := lcg(21)
	noise := lcg(34)
	prevY := true
	for i := 0; i < iters; i++ {
		y := rng.bit()
		tr.Append(rec(0x100, y))
		for g := 0; g < i%4; g++ {
			tr.Append(rec(trace.Addr(0x300+g*4), noise.bit()))
		}
		tr.Append(rec(0x200, y))
		tr.Append(rec(0x210, prevY))
		tr.Append(backTaken(0x1F0))
		prevY = y
	}
	return tr
}

// selSweepConfigs is the conformance grid: mixed window lengths, both
// modes, 0–3 refs per branch, and both tagging schemes.
func selSweepConfigs() []SelectiveConfig {
	pair := Assignment{0x200: {Ref{0x100, Occurrence, 0}}}
	multi := Assignment{
		0x200: {Ref{0x100, Occurrence, 0}, Ref{0x300, Occurrence, 0}, Ref{0x1F0, BackwardCount, 0}},
		0x210: {Ref{0x100, BackwardCount, 1}},
	}
	return []SelectiveConfig{
		{Name: "pair(16)", Window: 16, Assign: pair},
		{Name: "multi(8)", Window: 8, Assign: multi},
		{Name: "multi(24,presence)", Window: 24, Assign: multi, Mode: ModePresence},
		{Name: "empty(4)", Window: 4, Assign: Assignment{}},
		{Name: "pair(32,presence)", Window: 32, Assign: pair, Mode: ModePresence},
	}
}

// selBlockOf builds the kernel input for a packed trace over [lo, hi).
func selBlockOf(pt *trace.Packed, lo, hi int) bp.KernelBlock {
	return bp.KernelBlock{
		IDs:   pt.IDs(),
		Taken: pt.TakenWords(),
		Back:  pt.BackwardWords(),
		Addrs: pt.Addrs(),
		Lo:    lo,
		Hi:    hi,
	}
}

// selSweepTotals replays the packed trace through SweepBlock in chunks.
func selSweepTotals(g *SelectiveSweep, pt *trace.Packed, chunk int) []int32 {
	correct := make([]int32, len(g.ConfigNames()))
	for at := 0; at < pt.Len(); at += chunk {
		g.SweepBlock(selBlockOf(pt, at, min(at+chunk, pt.Len())), correct)
	}
	return correct
}

// TestSelectiveSweepScalarConformance pins the fused selective grid
// bit-identical, per config, to independent scalar Selective replays,
// across chunk sizes including single-record and word-straddling ones.
func TestSelectiveSweepScalarConformance(t *testing.T) {
	tr := selSweepTrace(4000)
	pt := tr.Packed()
	recs := recordsOf(tr)
	cfgs := selSweepConfigs()
	want := make([]int32, len(cfgs))
	for c, cfg := range cfgs {
		p := NewSelectiveMode(cfg.Name, cfg.Window, cfg.Assign, cfg.Mode)
		for _, r := range recs {
			if p.Predict(r) == r.Taken {
				want[c]++
			}
			p.Update(r)
		}
	}
	for _, chunk := range []int{1, 63, 64, 65, 1000, tr.Len()} {
		got := selSweepTotals(NewSelectiveSweep("sel", cfgs), pt, chunk)
		for c := range want {
			if got[c] != want[c] {
				t.Errorf("chunk=%d config %s: %d correct (fused) vs %d (scalar)",
					chunk, cfgs[c].Name, got[c], want[c])
			}
		}
	}
}

// TestSelectiveSweepShardComposition pins shard replays to the matching
// slice of the unsharded totals (each shard owns a private ring fed the
// identical stream, so composition is exact).
func TestSelectiveSweepShardComposition(t *testing.T) {
	tr := selSweepTrace(3000)
	pt := tr.Packed()
	cfgs := selSweepConfigs()
	want := selSweepTotals(NewSelectiveSweep("sel", cfgs), pt, 1000)
	names := NewSelectiveSweep("sel", cfgs).ConfigNames()
	for _, r := range [][2]int{{0, 1}, {0, 2}, {2, 5}, {1, 4}, {0, 5}} {
		lo, hi := r[0], r[1]
		sub := NewSelectiveSweep("sel", cfgs).Shard(lo, hi)
		subNames := sub.ConfigNames()
		got := selSweepTotals(sub.(*SelectiveSweep), pt, 1000)
		for c := range got {
			if subNames[c] != names[lo+c] {
				t.Errorf("shard [%d,%d): config %d named %q, want %q", lo, hi, c, subNames[c], names[lo+c])
			}
			if got[c] != want[lo+c] {
				t.Errorf("shard [%d,%d): config %s: %d correct vs %d unsharded",
					lo, hi, subNames[c], got[c], want[lo+c])
			}
		}
	}
}

// TestSelectiveSweepShardedSimulate drives the grid through the sim
// scheduler at several shard counts: the Figure 5 integration path —
// outcomes must be byte-identical to the sequential engine.
func TestSelectiveSweepShardedSimulate(t *testing.T) {
	tr := selSweepTrace(3000)
	cfgs := selSweepConfigs()
	base := sim.SimulateSweep(tr, NewSelectiveSweep("sel", cfgs), sim.Options{})
	for _, par := range []int{2, 3, -1} {
		out := sim.SimulateSweep(tr, NewSelectiveSweep("sel", cfgs), sim.Options{Parallel: par})
		for c := range base.Correct {
			if out.Correct[c] != base.Correct[c] {
				t.Errorf("parallel=%d config %s: %d correct, want %d",
					par, base.Configs[c], out.Correct[c], base.Correct[c])
			}
		}
	}
}

// TestSelectiveSweepConfigNames pins the grid labels to the scalar
// predictors Configs() materializes.
func TestSelectiveSweepConfigNames(t *testing.T) {
	g := NewSelectiveSweep("sel", selSweepConfigs())
	names := g.ConfigNames()
	preds := g.Configs()
	if g.GridName() != "sel" {
		t.Errorf("grid name %q", g.GridName())
	}
	for c, p := range preds {
		if names[c] != p.Name() {
			t.Errorf("config %d: grid name %q vs scalar name %q", c, names[c], p.Name())
		}
	}
}

// TestSelectiveSweepAllocs pins steady-state SweepBlock at zero
// allocations: refs and tables are dense per-ID columns pre-created on
// extension, and the shared ring's resolution walk reuses the window's
// scratch.
func TestSelectiveSweepAllocs(t *testing.T) {
	tr := selSweepTrace(3000)
	pt := tr.Packed()
	g := NewSelectiveSweep("sel", selSweepConfigs())
	correct := make([]int32, len(g.ConfigNames()))
	full := selBlockOf(pt, 0, pt.Len())
	g.SweepBlock(full, correct) // warm-up extends the per-ID columns
	for name, blk := range map[string]bp.KernelBlock{"full": full, "mid": selBlockOf(pt, pt.Len()/4, pt.Len()/2)} {
		if n := testing.AllocsPerRun(10, func() { g.SweepBlock(blk, correct) }); n != 0 {
			t.Errorf("%.1f allocs per steady-state SweepBlock (%s range), want 0", n, name)
		}
	}
}

// TestSelectiveSweepValidation pins the loud constructor failures.
func TestSelectiveSweepValidation(t *testing.T) {
	cases := map[string]func(){
		"empty":       func() { NewSelectiveSweep("g", nil) },
		"zero window": func() { NewSelectiveSweep("g", []SelectiveConfig{{Name: "x", Window: 0}}) },
		"over refs": func() {
			NewSelectiveSweep("g", []SelectiveConfig{{
				Name: "x", Window: 8, Assign: Assignment{0x10: make([]Ref, 4)},
			}})
		},
		"bad shard": func() {
			NewSelectiveSweep("g", selSweepConfigs()).Shard(3, 2)
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("did not panic")
				}
			}()
			build()
		})
	}
}

// TestInstIndexMatchesDedicatedWindow is the prefix property the fused
// sweep's shared index rests on: resolving refs through one instance
// index with an n-record cutoff must equal resolving them against a
// dedicated n-capacity window fed the identical stream, at every step.
func TestInstIndexMatchesDedicatedWindow(t *testing.T) {
	tr := selSweepTrace(600)
	refs := []Ref{
		{0x100, Occurrence, 0}, {0x100, Occurrence, 2}, {0x200, Occurrence, 1},
		{0x100, BackwardCount, 1}, {0x1F0, BackwardCount, 0}, {0x300, BackwardCount, 2},
	}
	hists := namedHists(Assignment{0: refs})
	bound := bindRefs(refs, hists)
	for _, n := range []int{1, 2, 5, 16, 32} {
		var ix instIndex
		for _, h := range hists {
			*h = instHist{}
		}
		small := NewWindow(n)
		wantSt := make([]State, len(refs))
		for i, r := range recordsOf(tr) {
			small.States(refs, wantSt)
			for k := range refs {
				if got := ix.state(bound[k], uint64(n)); got != wantSt[k] {
					t.Fatalf("n=%d step %d ref %v: index %v, dedicated window %v",
						n, i, refs[k], got, wantSt[k])
				}
			}
			small.Push(r)
			ix.push(hists[r.PC], b2u(r.Taken), b2u(r.Backward))
		}
	}
}
