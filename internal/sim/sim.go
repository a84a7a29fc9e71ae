// Package sim runs predictors over branch traces and accounts accuracy,
// both overall and per static branch. Per-branch accounting is the
// workhorse of the paper: every "hypothetical predictor" in sections 3.6.3
// and 4.2.2 is a per-static-branch combination of two real predictors'
// accuracies, and the classifications of section 5 compare per-branch
// correct counts across predictors.
//
// Simulate is the in-memory entry point: it drives a set of predictors
// over a trace under an Options value selecting parallelism, timeline
// bucketing, and engine. SimulateBlocks is its streaming twin for traces
// read chunk by chunk (bpsim -stream); both run one engine loop over a
// trace.BlockSource, the in-memory trace being a one-chunk source over
// its memoized Packed view. Per predictor the loop takes one of two
// paths with pinned-identical results:
//
//   - the reference loop (Options.ForceReference, and every predictor
//     without a kernel) — one Predict/Update interface call pair per
//     dynamic branch on records rebuilt from the columns — which is the
//     executable specification;
//   - the columnar fast path, taken transparently for every predictor
//     implementing bp.KernelPredictor: the packed columns (dense int32
//     branch IDs + taken bitset) stream through the predictor's batched
//     SimulateBlock kernel.
//
// Either way per-branch correct counts accumulate in a flat slice
// indexed by dense ID. Differential tests (kernel_test.go,
// differential_test.go, and the experiments package's report
// byte-identity test) prove the two paths bit-identical: same totals,
// same per-branch accounts, same report bytes.
//
// Simulate reports which path each predictor engaged into an
// obs.Registry (Options.Observer, defaulting to the process registry):
// counters sim.records, sim.runs.{fastpath,reference}, and
// sim.{fastpath,reference}.<predictor>. The counts depend only on the
// work requested, never on scheduling, so snapshots are identical at any
// parallelism.
package sim

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"branchcorr/internal/bp"
	"branchcorr/internal/obs"
	"branchcorr/internal/runner"
	"branchcorr/internal/trace"
)

// BranchAcc is the prediction record of one static branch under one
// predictor.
type BranchAcc struct {
	Correct int
	Total   int
}

// Accuracy returns the branch's prediction accuracy in [0,1].
func (b BranchAcc) Accuracy() float64 {
	if b.Total == 0 {
		return 0
	}
	return float64(b.Correct) / float64(b.Total)
}

// Result is the outcome of running one predictor over one trace.
type Result struct {
	Predictor string
	Trace     string
	Correct   int
	Total     int
	PerBranch map[trace.Addr]*BranchAcc
}

// Accuracy returns the overall prediction accuracy in [0,1].
func (r *Result) Accuracy() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Total)
}

// Mispredictions returns the number of mispredicted dynamic branches.
func (r *Result) Mispredictions() int { return r.Total - r.Correct }

// Branch returns the accounting entry for pc (zero value if the branch
// never executed).
func (r *Result) Branch(pc trace.Addr) BranchAcc {
	if b := r.PerBranch[pc]; b != nil {
		return *b
	}
	return BranchAcc{}
}

// String summarizes the result, e.g. "gshare(16) on gcc: 92.27% (25903086 branches)".
func (r *Result) String() string {
	return fmt.Sprintf("%s on %s: %.2f%% (%d branches)",
		r.Predictor, r.Trace, 100*r.Accuracy(), r.Total)
}

// newResult allocates an empty result.
func newResult(predictor, traceName string) *Result {
	return &Result{
		Predictor: predictor,
		Trace:     traceName,
		PerBranch: make(map[trace.Addr]*BranchAcc),
	}
}

// Timeline is a predictor's accuracy over consecutive equal-size spans
// of a trace, exposing warmup/training behavior: the first buckets show
// the cold predictor, the tail its steady state.
type Timeline struct {
	Predictor string
	Bucket    int       // dynamic branches per bucket
	Accuracy  []float64 // per-bucket accuracy (last bucket may be partial)
}

// Options configures one Simulate call. The zero value is the common
// case: sequential, no timelines, fastest engine per predictor, metrics
// into the process-wide default registry.
type Options struct {
	// Parallel is the worker budget for fanning independent work across
	// the runner pool. In Simulate it bounds concurrent predictor runs
	// (one cell per predictor; predictors are independent, the trace is
	// read-only). In SimulateSweep it bounds config shards: the grid
	// splits into up to Parallel contiguous sub-grids (bp.SweepSharder),
	// each replaying on its own core, and the per-config counts compose
	// exactly. 0 or 1 runs sequentially;
	// negative selects runtime.GOMAXPROCS(0). Results are bit-identical
	// at every setting.
	Parallel int
	// BucketSize, when positive, additionally records each predictor's
	// accuracy per bucket of this many dynamic branches (Outcome.Timelines).
	BucketSize int
	// ForceReference pins every predictor to the per-record reference
	// loop, bypassing the columnar kernels — the differential tests'
	// baseline engine.
	ForceReference bool
	// Observer receives the engine-engagement counters; nil selects
	// obs.Default().
	Observer *obs.Registry
}

// workers resolves the Parallel budget: non-negative values pass
// through, negative selects runtime.GOMAXPROCS(0).
func (o Options) workers() int {
	if o.Parallel < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallel
}

// Outcome carries everything one Simulate call produced, in predictor
// argument order.
type Outcome struct {
	Results []*Result
	// Timelines is non-nil only when Options.BucketSize > 0.
	Timelines []*Timeline
}

// newOutcome shapes an outcome for the predictors, with one Timeline
// per predictor when bucketSize > 0.
func newOutcome(predictors []bp.Predictor, bucketSize int) *Outcome {
	out := &Outcome{Results: make([]*Result, len(predictors))}
	if bucketSize > 0 {
		out.Timelines = make([]*Timeline, len(predictors))
		for i, p := range predictors {
			out.Timelines[i] = &Timeline{Predictor: p.Name(), Bucket: bucketSize}
		}
	}
	return out
}

// Simulate drives every predictor over the trace (each predictor sees
// the identical committed branch stream) and returns one Result — and,
// when opts.BucketSize > 0, one Timeline — per predictor, in argument
// order. The trace's memoized Packed view is replayed as a one-chunk
// block source through the same loop SimulateBlocks runs over streamed
// chunks, so in-memory and streamed runs share one engine. With
// opts.Parallel > 1 each predictor runs in its own runner cell over its
// own source; predictors are mutually independent, so engine choice and
// scheduling never change the Outcome.
func Simulate(t *trace.Trace, predictors []bp.Predictor, opts Options) *Outcome {
	reg := obs.Or(opts.Observer)
	if len(predictors) == 0 {
		return newOutcome(predictors, opts.BucketSize)
	}
	defer reg.StartSpan("sim.simulate").End()
	pt := t.Packed()
	run := func(preds []bp.Predictor) *Outcome {
		out, err := simulate(pt.Blocks(pt.Len()), preds, opts, reg)
		if err != nil {
			// Unreachable: an in-memory packed source cannot fail.
			panic("sim: Simulate source failed: " + err.Error())
		}
		return out
	}
	if w := opts.workers(); w <= 1 || len(predictors) == 1 {
		return run(predictors)
	}
	out := newOutcome(predictors, opts.BucketSize)
	cells := make([]runner.Cell, len(predictors))
	for i, p := range predictors {
		i, p := i, p
		cells[i] = runner.Cell{
			Exhibit:  "sim",
			Workload: p.Name(),
			Run: func(context.Context) error {
				one := run([]bp.Predictor{p})
				out.Results[i] = one.Results[0]
				if out.Timelines != nil {
					out.Timelines[i] = one.Timelines[0]
				}
				return nil
			},
		}
	}
	err := runner.Run(context.Background(), cells, runner.Options{Parallel: opts.workers()})
	if err != nil {
		// Unreachable: cells never fail and the context is never
		// cancelled; a scheduler error here is a bug, not a condition.
		panic("sim: Simulate scheduler failed: " + err.Error())
	}
	return out
}

// simulate is the one simulation engine: it drives every predictor
// through a block source chunk by chunk. Each predictor independently
// takes the columnar kernel path over every chunk when it implements
// bp.KernelPredictor (unless opts.ForceReference); other predictors
// replay the chunk through the scalar Predict/Update loop on records
// reconstructed from the columns. Per-branch accounting accumulates in
// flat slices indexed by dense ID that grow with the source's intern
// table, so resident state is O(chunk + static branch sites +
// #predictors). The kernel contract makes chunked replay
// observationally equal to one full-trace call, so the Outcome is the
// same at any chunk size.
//
// The engine counters (sim.records, sim.runs.{fastpath,reference} and
// sim.{fastpath,reference}.<predictor>) depend only on the work
// requested, so totals are deterministic at any parallelism.
func simulate(src trace.BlockSource, predictors []bp.Predictor, opts Options, reg *obs.Registry) (*Outcome, error) {
	out := newOutcome(predictors, opts.BucketSize)
	// Engine choice is fixed per predictor up front.
	kernels := make([]bp.KernelPredictor, len(predictors))
	for i, p := range predictors {
		if k, ok := p.(bp.KernelPredictor); ok && !opts.ForceReference {
			kernels[i] = k
			reg.Counter("sim.runs.fastpath").Inc()
			reg.Counter("sim.fastpath." + p.Name()).Inc()
		} else {
			reg.Counter("sim.runs.reference").Inc()
			reg.Counter("sim.reference." + p.Name()).Inc()
		}
	}

	correct := make([][]int32, len(predictors))
	totalCorrect := make([]int, len(predictors))
	bucketCorrect := make([]int, len(predictors))
	var totals []int32 // per dense ID dynamic occurrence count
	pos := 0
	for {
		blk, ok := src.Next()
		if !ok {
			break
		}
		addrs := src.Addrs()
		totals = growInt32(totals, len(addrs))
		for i := range correct {
			correct[i] = growInt32(correct[i], len(addrs))
		}
		for _, id := range blk.IDs {
			totals[id]++
		}
		// Replay the chunk in segments that end at timeline bucket
		// boundaries (the whole chunk when no buckets are requested), so
		// kernel calls never straddle a bucket.
		for lo := 0; lo < blk.Len(); {
			hi := blk.Len()
			if opts.BucketSize > 0 {
				hi = min(hi, lo+opts.BucketSize-(pos+lo)%opts.BucketSize)
			}
			kblk := bp.KernelBlock{IDs: blk.IDs, Taken: blk.Taken, Back: blk.Back, Addrs: addrs, Lo: lo, Hi: hi}
			for i, p := range predictors {
				var c int
				if k := kernels[i]; k != nil {
					c = k.SimulateBlock(kblk, correct[i])
				} else {
					c = referenceSegment(p, blk, addrs, lo, hi, correct[i])
				}
				totalCorrect[i] += c
				bucketCorrect[i] += c
			}
			if opts.BucketSize > 0 && (pos+hi)%opts.BucketSize == 0 {
				for i := range predictors {
					out.Timelines[i].Accuracy = append(out.Timelines[i].Accuracy,
						float64(bucketCorrect[i])/float64(opts.BucketSize))
					bucketCorrect[i] = 0
				}
			}
			lo = hi
		}
		pos += blk.Len()
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	if opts.BucketSize > 0 && pos%opts.BucketSize != 0 {
		for i := range predictors {
			out.Timelines[i].Accuracy = append(out.Timelines[i].Accuracy,
				float64(bucketCorrect[i])/float64(pos%opts.BucketSize))
		}
	}
	reg.Counter("sim.records").Add(int64(pos) * int64(len(predictors)))

	addrs := src.Addrs()
	for i, p := range predictors {
		r := newResult(p.Name(), src.Name())
		for id := range addrs {
			r.PerBranch[addrs[id]] = &BranchAcc{Correct: int(correct[i][id]), Total: int(totals[id])}
		}
		r.Correct = totalCorrect[i]
		r.Total = pos
		out.Results[i] = r
	}
	return out, nil
}

// referenceSegment replays block records [lo, hi) through the scalar
// Predict/Update loop — the reference engine's per-record semantics on
// records reconstructed from the columns, and the executable
// specification the columnar kernels are pinned against — accumulating
// per-ID correct counts like a kernel call and returning the segment's
// correct total.
func referenceSegment(p bp.Predictor, blk trace.Block, addrs []trace.Addr, lo, hi int, correct []int32) int {
	c := 0
	for i := lo; i < hi; i++ {
		id := blk.IDs[i]
		rec := trace.Record{
			PC:       addrs[id],
			Taken:    blk.Taken1(i) != 0,
			Backward: blk.Back1(i) != 0,
		}
		if p.Predict(rec) == rec.Taken {
			correct[id]++
			c++
		}
		p.Update(rec)
	}
	return c
}

// growInt32 extends s with zeroed entries up to length n, preserving the
// accumulated prefix as the source's intern table grows.
func growInt32(s []int32, n int) []int32 {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		return s[:n]
	}
	out := make([]int32, n, max(n, 2*cap(s)))
	copy(out, s)
	return out
}

// CombineMax builds the paper's hypothetical per-branch combiner: for
// every static branch it uses whichever of a or b predicted that branch
// more accurately (section 3.6.3's "gshare w/ Corr" uses the 1-branch
// selective predictor where it beats gshare, else gshare). Both results
// must come from the same trace; per-branch totals must agree.
func CombineMax(name string, a, b *Result) *Result {
	out := newResult(name, a.Trace)
	for pc, ba := range a.PerBranch {
		bb := b.Branch(pc)
		best := ba.Correct
		if bb.Correct > best {
			best = bb.Correct
		}
		out.PerBranch[pc] = &BranchAcc{Correct: best, Total: ba.Total}
		out.Correct += best
		out.Total += ba.Total
	}
	return out
}

// CombineSelect builds a hypothetical combiner with an explicit per-branch
// assignment: branches for which useA returns true score with a, all
// others with b (section 4.2.2's "PAs w/ Loop" uses the loop predictor for
// loop-class branches and PAs for the rest).
func CombineSelect(name string, a, b *Result, useA func(trace.Addr) bool) *Result {
	out := newResult(name, a.Trace)
	for pc, ba := range a.PerBranch {
		src := b.Branch(pc)
		if useA(pc) {
			src = *ba
		}
		out.PerBranch[pc] = &BranchAcc{Correct: src.Correct, Total: ba.Total}
		out.Correct += src.Correct
		out.Total += ba.Total
	}
	return out
}

// DiffPercentiles computes the Figure 9 curve: per static branch the
// accuracy difference a−b (in percentage points), expanded over dynamic
// executions and sorted ascending; it returns the difference at each
// requested percentile of dynamic branches (percentiles in [0,100]).
// Branches with equal differences order by PC, so the curve is
// deterministic regardless of map iteration order, and all percentiles
// are answered in a single cumulative sweep over the sorted differences.
func DiffPercentiles(a, b *Result, percentiles []float64) []float64 {
	type branchDiff struct {
		pc     trace.Addr
		diff   float64
		weight int
	}
	diffs := make([]branchDiff, 0, len(a.PerBranch))
	totalWeight := 0
	for pc, ba := range a.PerBranch {
		bb := b.Branch(pc)
		d := 100 * (ba.Accuracy() - bb.Accuracy())
		diffs = append(diffs, branchDiff{pc: pc, diff: d, weight: ba.Total})
		totalWeight += ba.Total
	}
	sort.Slice(diffs, func(i, j int) bool {
		if diffs[i].diff != diffs[j].diff {
			return diffs[i].diff < diffs[j].diff
		}
		return diffs[i].pc < diffs[j].pc
	})
	out := make([]float64, len(percentiles))
	if totalWeight == 0 {
		return out
	}
	// Percentiles whose cumulative-weight target is never reached (only
	// possible above 100) report the largest difference.
	for i := range out {
		out[i] = diffs[len(diffs)-1].diff
	}
	// Answer the percentiles smallest-target-first while sweeping the
	// sorted differences once: each percentile resolves at the first
	// branch whose cumulative dynamic weight reaches its target.
	order := make([]int, len(percentiles))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return percentiles[order[i]] < percentiles[order[j]]
	})
	cum, next := 0, 0
	for _, d := range diffs {
		cum += d.weight
		for next < len(order) &&
			percentiles[order[next]]/100*float64(totalWeight) <= float64(cum) {
			out[order[next]] = d.diff
			next++
		}
		if next == len(order) {
			break
		}
	}
	return out
}
