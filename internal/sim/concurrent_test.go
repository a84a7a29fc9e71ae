package sim

import (
	"math/rand"
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/trace"
)

func TestRunConcurrentMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := trace.New("c", 0)
	for i := 0; i < 20000; i++ {
		tr.Append(trace.Record{
			PC:       trace.Addr(0x100 + rng.Intn(32)*4),
			Taken:    rng.Intn(3) != 0,
			Backward: rng.Intn(5) == 0,
		})
	}
	mk := func() []bp.Predictor {
		return []bp.Predictor{
			bp.NewGshare(12),
			bp.NewPAs(8, 8, 2),
			bp.NewLoop(),
			bp.NewBimodal(10),
		}
	}
	seq := Simulate(tr, mk(), Options{}).Results
	con := Simulate(tr, mk(), Options{Parallel: -1}).Results
	for i := range seq {
		if seq[i].Correct != con[i].Correct || seq[i].Total != con[i].Total {
			t.Errorf("predictor %s: sequential %d/%d vs concurrent %d/%d",
				seq[i].Predictor, seq[i].Correct, seq[i].Total, con[i].Correct, con[i].Total)
		}
		for pc, b := range seq[i].PerBranch {
			if cb := con[i].Branch(pc); *b != cb {
				t.Errorf("predictor %s branch 0x%x: %+v vs %+v", seq[i].Predictor, uint32(pc), b, cb)
			}
		}
	}
}

func TestRunConcurrentEmpty(t *testing.T) {
	rs := Simulate(trace.New("e", 0), []bp.Predictor{bp.AlwaysTaken{}}, Options{Parallel: -1}).Results
	if rs[0].Total != 0 {
		t.Errorf("empty: %+v", rs[0])
	}
}

// Property-style check: CombineMax never loses to either component on
// randomized accounts.
func TestCombineMaxDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		a := newResult("a", "t")
		b := newResult("b", "t")
		for pc := trace.Addr(0); pc < 30; pc++ {
			total := 1 + rng.Intn(100)
			ca, cb := rng.Intn(total+1), rng.Intn(total+1)
			a.PerBranch[pc] = &BranchAcc{Correct: ca, Total: total}
			a.Correct += ca
			a.Total += total
			b.PerBranch[pc] = &BranchAcc{Correct: cb, Total: total}
			b.Correct += cb
			b.Total += total
		}
		comb := CombineMax("m", a, b)
		if comb.Correct < a.Correct || comb.Correct < b.Correct {
			t.Fatalf("trial %d: combine %d below a=%d or b=%d", trial, comb.Correct, a.Correct, b.Correct)
		}
		if comb.Total != a.Total {
			t.Fatalf("trial %d: total %d != %d", trial, comb.Total, a.Total)
		}
		// Per-branch, the combiner equals the max.
		for pc, ab := range a.PerBranch {
			bb := b.PerBranch[pc]
			want := ab.Correct
			if bb.Correct > want {
				want = bb.Correct
			}
			if got := comb.Branch(pc).Correct; got != want {
				t.Fatalf("trial %d pc %d: %d != %d", trial, pc, got, want)
			}
		}
	}
}
