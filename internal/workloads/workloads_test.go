package workloads

import (
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
)

const testLen = 60_000

// genOnce caches generated traces across tests (generation is pure).
var genCache = map[string]*trace.Trace{}

func gen(t *testing.T, name string) *trace.Trace {
	t.Helper()
	if tr, ok := genCache[name]; ok {
		return tr
	}
	w, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr := w.Generate(testLen)
	genCache[name] = tr
	return tr
}

func TestAllWorkloadsBasics(t *testing.T) {
	names := map[string]bool{}
	for _, w := range All() {
		if w.Name() == "" || w.Description() == "" {
			t.Fatalf("%T: empty name or description", w)
		}
		if names[w.Name()] {
			t.Fatalf("duplicate workload name %q", w.Name())
		}
		names[w.Name()] = true
	}
	want := []string{"compress", "gcc", "go", "ijpeg", "m88ksim", "perl", "vortex", "xlisp"}
	if got := Names(); len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Names()[%d] = %q, want %q", i, got[i], want[i])
			}
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) should fail")
	}
}

func TestExactLengthAndDeterminism(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			tr := gen(t, name)
			if tr.Len() != testLen {
				t.Fatalf("len = %d, want %d", tr.Len(), testLen)
			}
			if tr.Name() != name {
				t.Fatalf("trace name = %q", tr.Name())
			}
			// Regenerate a prefix: must be byte-identical (determinism).
			w, _ := ByName(name)
			short, full := w.Generate(5000).Packed(), tr.Packed()
			for i := 0; i < 5000; i++ {
				if short.Record(i) != full.Record(i) {
					t.Fatalf("nondeterministic at record %d: %v vs %v", i, short.Record(i), full.Record(i))
				}
			}
		})
	}
}

func TestZeroLength(t *testing.T) {
	w, _ := ByName("compress")
	if got := w.Generate(0).Len(); got != 0 {
		t.Errorf("Generate(0) len = %d", got)
	}
}

func TestTraceShape(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			st := trace.Summarize(gen(t, name))
			if st.Static < 8 {
				t.Errorf("only %d static sites; workloads must have a rich branch population", st.Static)
			}
			if st.Static > 100 {
				t.Errorf("%d static sites: site allocation is broken", st.Static)
			}
			if st.BackwardSites == 0 {
				t.Error("no backward branch sites: loop tagging cannot work")
			}
			if rate := st.TakenRate(); rate < 0.2 || rate > 0.95 {
				t.Errorf("taken rate %.2f outside sane range", rate)
			}
		})
	}
}

// TestDifficultyOrdering checks the substitution's central claim: the
// stand-ins reproduce the SPECint95 difficulty spectrum. gshare must find
// the compiler and board-game stand-ins clearly harder than the database
// and CPU-simulator stand-ins.
func TestDifficultyOrdering(t *testing.T) {
	acc := func(name string) float64 {
		return sim.Simulate(gen(t, name), []bp.Predictor{bp.NewGshare(14)}, sim.Options{}).Results[0].Accuracy()
	}
	gcc, goAcc := acc("gcc"), acc("go")
	vortex, m88k := acc("vortex"), acc("m88ksim")
	hardest := gcc
	if goAcc < hardest {
		hardest = goAcc
	}
	easiest := vortex
	if m88k < easiest {
		easiest = m88k
	}
	if easiest < 0.94 {
		t.Errorf("easy workloads too hard: vortex=%.3f m88ksim=%.3f", vortex, m88k)
	}
	if hardest > easiest-0.03 {
		t.Errorf("difficulty spectrum collapsed: gcc=%.3f go=%.3f vs vortex=%.3f m88ksim=%.3f",
			gcc, goAcc, vortex, m88k)
	}
	if hardest < 0.70 {
		t.Errorf("hard workloads unrealistically hard: gcc=%.3f go=%.3f", gcc, goAcc)
	}
}

// TestLoopClassPresence: the image coder must expose loop-type branches
// (fixed-trip DCT loops) that a loop predictor captures nearly perfectly.
func TestLoopClassPresence(t *testing.T) {
	tr := gen(t, "ijpeg")
	res := sim.Simulate(tr, []bp.Predictor{bp.NewLoop()}, sim.Options{}).Results[0]
	st := trace.Summarize(tr)
	perfect := 0
	for pc, site := range st.Sites {
		if !site.Backward || site.Count < 500 {
			continue
		}
		if res.Branch(pc).Accuracy() > 0.98 {
			perfect++
		}
	}
	if perfect < 2 {
		t.Errorf("only %d near-perfect loop branches in ijpeg; expected several", perfect)
	}
}

// TestCorrelationPresence: the compiler stand-in must contain branches
// that global history predicts much better than local history — the
// correlation the paper is about.
func TestCorrelationPresence(t *testing.T) {
	tr := gen(t, "gcc")
	rs := sim.Simulate(tr, []bp.Predictor{bp.NewIFGshare(12), bp.NewIFPAs(12)}, sim.Options{}).Results
	gl, loc := rs[0], rs[1]
	globalWins := 0
	for pc, b := range gl.PerBranch {
		if b.Total < 500 {
			continue
		}
		if b.Accuracy() > loc.Branch(pc).Accuracy()+0.02 {
			globalWins++
		}
	}
	if globalWins < 3 {
		t.Errorf("only %d branches favor global history in gcc; correlation structure missing", globalWins)
	}
}

// TestBiasedPopulation: the database stand-in must be dominated by
// heavily biased branches, like vortex (83-92%% of statically-predicted
// branches are >99%% biased in the paper).
func TestBiasedPopulation(t *testing.T) {
	st := trace.Summarize(gen(t, "vortex"))
	if frac := st.BiasedFraction(0.95); frac < 0.45 {
		t.Errorf("vortex biased fraction = %.2f, want >= 0.45", frac)
	}
}

func TestSiteRangesDisjoint(t *testing.T) {
	// Every workload's sites must stay in its private 0x0100_0000 range.
	for i, name := range Names() {
		base := trace.Addr(0x0100_0000 * (i + 1))
		st := trace.Summarize(gen(t, name))
		for pc := range st.Sites {
			if pc < base || pc >= base+0x0100_0000 {
				t.Fatalf("%s: site 0x%x outside range [0x%x, 0x%x)", name, uint32(pc), uint32(base), uint32(base)+0x0100_0000)
			}
		}
	}
}

func TestPRNG(t *testing.T) {
	p := newPRNG(0)
	q := newPRNG(0)
	for i := 0; i < 100; i++ {
		if p.next() != q.next() {
			t.Fatal("prng not deterministic")
		}
	}
	r := newPRNG(1)
	counts := [10]int{}
	for i := 0; i < 10000; i++ {
		v := r.intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("intn out of range: %d", v)
		}
		counts[v]++
	}
	for d, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("digit %d count %d far from uniform", d, c)
		}
	}
	hits := 0
	for i := 0; i < 10000; i++ {
		if r.chance(1, 4) {
			hits++
		}
	}
	if hits < 2200 || hits > 2800 {
		t.Errorf("chance(1,4) hit %d/10000", hits)
	}
}

func TestTracerStopsExactly(t *testing.T) {
	site := Site{PC: 0x10}
	tr := run("x", 100, func(t *Tracer) {
		for {
			t.B(site, true)
		}
	})
	if tr.Len() != 100 {
		t.Errorf("len = %d, want 100", tr.Len())
	}
}

func TestRunRestartsReturningBody(t *testing.T) {
	// A body that returns early must be restarted until the quota fills.
	site := Site{PC: 0x10}
	calls := 0
	tr := run("x", 50, func(t *Tracer) {
		calls++
		for i := 0; i < 7; i++ {
			t.B(site, true)
		}
	})
	if tr.Len() != 50 {
		t.Errorf("len = %d, want 50", tr.Len())
	}
	if calls != 8 { // ceil(50/7)
		t.Errorf("body called %d times, want 8", calls)
	}
}

func TestRunPropagatesForeignPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("foreign panic swallowed")
		}
	}()
	run("x", 10, func(t *Tracer) { panic("boom") })
}
