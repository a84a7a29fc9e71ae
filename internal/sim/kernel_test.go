package sim

import (
	"math"
	"math/rand"
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/trace"
)

// kernelSpecs are the registered specs whose predictors carry batched
// kernels — the hot set the columnar fast path covers.
var kernelSpecs = []string{
	"bimodal:12", "gshare:12", "gas:10,3", "pas:10,9,3",
	"ifgshare:12", "ifpas:12", "taken", "not-taken", "btfnt", "ideal-static",
}

// mkSpec parses one predictor spec against the trace's statistics.
func mkSpec(t *testing.T, spec string, tr *trace.Trace) bp.Predictor {
	t.Helper()
	p, err := bp.Parse(spec, bp.Env{Stats: trace.Summarize(tr), Trace: tr})
	if err != nil {
		t.Fatalf("spec %q: %v", spec, err)
	}
	return p
}

// TestRunFastPathMatchesReference is the sim-side half of the engine
// equivalence guarantee: Simulate's columnar fast path and its
// ForceReference per-record spec produce identical Results — labels,
// totals, and full per-branch accounting — for every kernel-backed spec,
// solo and batched, and a parallel Simulate agrees with both.
func TestRunFastPathMatchesReference(t *testing.T) {
	for _, seed := range []int64{3, 77} {
		tr := randomTrace(seed, 20_000)
		for _, spec := range kernelSpecs {
			fast := Simulate(tr, []bp.Predictor{mkSpec(t, spec, tr)}, Options{}).Results[0]
			ref := Simulate(tr, []bp.Predictor{mkSpec(t, spec, tr)}, Options{ForceReference: true}).Results[0]
			sameResult(t, spec+"/fast-vs-ref", ref, fast)
			conc := Simulate(tr, []bp.Predictor{mkSpec(t, spec, tr)}, Options{Parallel: -1}).Results[0]
			sameResult(t, spec+"/concurrent-vs-ref", ref, conc)
		}

		// Whole-batch fast path: all predictors kernel-backed.
		batch := make([]bp.Predictor, len(kernelSpecs))
		batchRef := make([]bp.Predictor, len(kernelSpecs))
		for i, spec := range kernelSpecs {
			batch[i] = mkSpec(t, spec, tr)
			batchRef[i] = mkSpec(t, spec, tr)
		}
		fast := Simulate(tr, batch, Options{}).Results
		ref := Simulate(tr, batchRef, Options{ForceReference: true}).Results
		for i, spec := range kernelSpecs {
			sameResult(t, spec+"/batch", ref[i], fast[i])
		}
	}
}

// TestRunMixedBatchFallsBack pins the dispatch rule: one kernel-less
// predictor in the batch sends the whole call down the reference loop,
// and results still match per-predictor solo runs.
func TestRunMixedBatchFallsBack(t *testing.T) {
	tr := randomTrace(5, 10_000)
	mixed := Simulate(tr, []bp.Predictor{mkSpec(t, "gshare:12", tr), mkSpec(t, "loop", tr)}, Options{}).Results
	soloG := Simulate(tr, []bp.Predictor{mkSpec(t, "gshare:12", tr)}, Options{}).Results[0]
	soloL := Simulate(tr, []bp.Predictor{mkSpec(t, "loop", tr)}, Options{}).Results[0]
	sameResult(t, "mixed/gshare", soloG, mixed[0])
	sameResult(t, "mixed/loop", soloL, mixed[1])
}

// TestRunTimelinePackedMatchesReference drives the same trace through
// a bucketed Simulate twice — once with kernel-backed predictors (columnar
// bucket replay) and once with the kernels stripped (reference
// interleaved loop) — and asserts bit-identical bucket accuracies,
// including the partial final bucket.
func TestRunTimelinePackedMatchesReference(t *testing.T) {
	tr := randomTrace(13, 20_500) // not a multiple of the bucket: partial tail
	for _, bucket := range []int{1000, 64, 20_500, 50_000} {
		fast := Simulate(tr, []bp.Predictor{mkSpec(t, "gshare:12", tr), mkSpec(t, "bimodal:12", tr), mkSpec(t, "pas:10,9,3", tr)}, Options{BucketSize: bucket}).Timelines
		ref := Simulate(tr, []bp.Predictor{scalarOnly{mkSpec(t, "gshare:12", tr)}, scalarOnly{mkSpec(t, "bimodal:12", tr)}, scalarOnly{mkSpec(t, "pas:10,9,3", tr)}}, Options{BucketSize: bucket}).Timelines
		for i := range fast {
			if fast[i].Predictor != ref[i].Predictor || fast[i].Bucket != ref[i].Bucket {
				t.Fatalf("bucket=%d: labels %q/%d vs %q/%d", bucket,
					fast[i].Predictor, fast[i].Bucket, ref[i].Predictor, ref[i].Bucket)
			}
			if len(fast[i].Accuracy) != len(ref[i].Accuracy) {
				t.Fatalf("bucket=%d %s: %d buckets (fast) vs %d (ref)", bucket,
					fast[i].Predictor, len(fast[i].Accuracy), len(ref[i].Accuracy))
			}
			for j := range fast[i].Accuracy {
				if fast[i].Accuracy[j] != ref[i].Accuracy[j] {
					t.Errorf("bucket=%d %s[%d]: %v (fast) vs %v (ref)", bucket,
						fast[i].Predictor, j, fast[i].Accuracy[j], ref[i].Accuracy[j])
				}
			}
		}
	}
}

// TestRunTimelineStreamedBuckets pins the fast path's bucket totals
// against a streaming per-bucket reconstruction from full-run per-branch
// results: the sum over buckets must equal the full run's correct count,
// so the timeline exhibit cannot drift from the headline accuracies.
func TestRunTimelineStreamedBuckets(t *testing.T) {
	tr := randomTrace(21, 15_000)
	const bucket = 1024
	tl := Simulate(tr, []bp.Predictor{mkSpec(t, "gshare:12", tr)}, Options{BucketSize: bucket}).Timelines[0]
	full := Simulate(tr, []bp.Predictor{mkSpec(t, "gshare:12", tr)}, Options{}).Results[0]
	sum := 0.0
	for j, acc := range tl.Accuracy {
		size := bucket
		if (j+1)*bucket > tr.Len() {
			size = tr.Len() - j*bucket
		}
		sum += acc * float64(size)
	}
	if got := int(math.Round(sum)); got != full.Correct {
		t.Errorf("bucket totals sum to %d, full run correct %d", got, full.Correct)
	}
}

// mkTiedResults builds a result pair with deliberately tied per-branch
// accuracy differences across distinct PCs, exercising the tie-break.
func mkTiedResults() (*Result, *Result) {
	a := newResult("a", "t")
	b := newResult("b", "t")
	// Four branches: two tied at diff 0 with different weights, one at
	// -50, one at +50.
	add := func(pc trace.Addr, ac, at, bc, bt int) {
		a.PerBranch[pc] = &BranchAcc{Correct: ac, Total: at}
		b.PerBranch[pc] = &BranchAcc{Correct: bc, Total: bt}
		a.Correct += ac
		a.Total += at
		b.Correct += bc
		b.Total += bt
	}
	add(0x40, 5, 10, 10, 10)  // diff -50, weight 10
	add(0x44, 30, 40, 30, 40) // diff 0, weight 40
	add(0x48, 10, 20, 10, 20) // diff 0, weight 20
	add(0x4c, 30, 30, 15, 30) // diff +50, weight 30
	return a, b
}

// TestDiffPercentilesTieBreak is the regression test for the
// nondeterministic tie-breaking fix: with several branches tied on
// accuracy difference, repeated calls (each visiting the per-branch map
// in a fresh iteration order) must return the identical curve, and the
// curve must match the hand-computed cumulative-weight answer.
func TestDiffPercentilesTieBreak(t *testing.T) {
	a, b := mkTiedResults()
	ps := []float64{0, 10, 50, 70, 100}
	// Cumulative weights over sorted diffs (-50:10, 0:60, +50:30), total
	// 100: p=0 and p=10 resolve at -50, p=50 and p=70 inside the tied 0
	// run, p=100 at +50.
	want := []float64{-50, -50, 0, 0, 50}
	first := DiffPercentiles(a, b, ps)
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("DiffPercentiles = %v, want %v", first, want)
		}
	}
	for trial := 0; trial < 100; trial++ {
		got := DiffPercentiles(a, b, ps)
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("trial %d: %v, previously %v — tie-break is order-dependent", trial, got, first)
			}
		}
	}
}

// quadraticDiffPercentiles is the pre-optimization O(percentiles ×
// branches) re-scan, kept as the oracle for the single-sweep rewrite.
func quadraticDiffPercentiles(a, b *Result, percentiles []float64) []float64 {
	type branchDiff struct {
		pc     trace.Addr
		diff   float64
		weight int
	}
	diffs := make([]branchDiff, 0, len(a.PerBranch))
	totalWeight := 0
	for pc, ba := range a.PerBranch {
		bb := b.Branch(pc)
		diffs = append(diffs, branchDiff{pc: pc, diff: 100 * (ba.Accuracy() - bb.Accuracy()), weight: ba.Total})
		totalWeight += ba.Total
	}
	sortBranchDiffs := func(i, j int) bool {
		if diffs[i].diff != diffs[j].diff {
			return diffs[i].diff < diffs[j].diff
		}
		return diffs[i].pc < diffs[j].pc
	}
	for i := 1; i < len(diffs); i++ { // insertion sort: stable, dependency-free
		for j := i; j > 0 && sortBranchDiffs(j, j-1); j-- {
			diffs[j], diffs[j-1] = diffs[j-1], diffs[j]
		}
	}
	out := make([]float64, len(percentiles))
	if totalWeight == 0 {
		return out
	}
	for i, p := range percentiles {
		target := p / 100 * float64(totalWeight)
		cum := 0
		val := diffs[len(diffs)-1].diff
		for _, d := range diffs {
			cum += d.weight
			if float64(cum) >= target {
				val = d.diff
				break
			}
		}
		out[i] = val
	}
	return out
}

// TestDiffPercentilesSweepEquivalence pins the single-sweep
// implementation bit-identical to the quadratic re-scan on randomized
// results, including unsorted and duplicated percentile inputs.
func TestDiffPercentilesSweepEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		a := newResult("a", "t")
		b := newResult("b", "t")
		branches := 1 + rng.Intn(30)
		for i := 0; i < branches; i++ {
			pc := trace.Addr(0x100 + i*4)
			total := 1 + rng.Intn(50)
			a.PerBranch[pc] = &BranchAcc{Correct: rng.Intn(total + 1), Total: total}
			b.PerBranch[pc] = &BranchAcc{Correct: rng.Intn(total + 1), Total: total}
		}
		ps := make([]float64, 1+rng.Intn(12))
		for i := range ps {
			ps[i] = float64(rng.Intn(101))
		}
		want := quadraticDiffPercentiles(a, b, ps)
		got := DiffPercentiles(a, b, ps)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: percentiles %v: sweep %v, quadratic %v", trial, ps, got, want)
			}
		}
	}
}
