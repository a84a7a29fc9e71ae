package sim

import (
	"context"
	"fmt"

	"branchcorr/internal/bp"
	"branchcorr/internal/obs"
	"branchcorr/internal/runner"
	"branchcorr/internal/trace"
)

// This file is the sweep engine: whole config grids — the shape of every
// figure in the paper — simulated in one call through one contract,
// bp.SweepGrid. Fused grids update every config from a single walk over
// the packed columns; a bp.PredictorGrid replays each config on its own
// best engine inside the same call. The differential tests pin every
// grid bit-identical, per config, to independent Simulate runs.
//
// On top of fusion sits config sharding (Options.Parallel > 1): the
// grid splits into contiguous sub-grids (grid.Shard), one runner cell
// per shard, each replaying the identical record stream against its own
// fresh state. Configs of one grid share no counter state, so each
// shard's per-config counts land in a disjoint slice of the output
// vector and the composed result is byte-identical to the sequential
// run — the scheduler only ever changes who computes a count, never the
// count (pinned by the shard differential tests under -race).

// SweepOutcome is everything one SimulateSweep call produced: one
// correct-prediction count per grid config, in grid order, over a
// common record total.
type SweepOutcome struct {
	Grid    string   // grid name (bp.SweepGrid.GridName)
	Trace   string   // trace name
	Configs []string // per-config labels, grid order
	Correct []int64  // per-config correct predictions
	Total   int      // dynamic branches simulated (same for every config)
}

// Accuracy returns config c's prediction accuracy in [0,1].
func (o *SweepOutcome) Accuracy(c int) float64 {
	if o.Total == 0 {
		return 0
	}
	return float64(o.Correct[c]) / float64(o.Total)
}

// newSweepOutcome shapes an outcome for the grid with zeroed counts.
func newSweepOutcome(grid bp.SweepGrid, traceName string) *SweepOutcome {
	names := grid.ConfigNames()
	return &SweepOutcome{
		Grid:    grid.GridName(),
		Trace:   traceName,
		Configs: names,
		Correct: make([]int64, len(names)),
	}
}

// sweepAccount reports the work-proportional sweep counters: they
// depend only on (trace length, grid, options), never on scheduling or
// chunking, so snapshots stay deterministic.
func sweepAccount(reg *obs.Registry, grid string, ncfg, records int, fused bool) {
	reg.Counter("sim.sweep.configs").Add(int64(ncfg))
	reg.Counter("sim.sweep.records").Add(int64(records))
	reg.Counter("sim.sweep.predictions").Add(int64(ncfg) * int64(records))
	if fused {
		reg.Counter("sim.sweep.runs.fused").Inc()
		reg.Counter("sim.sweep.fused." + grid).Inc()
	} else {
		reg.Counter("sim.sweep.runs.fallback").Inc()
		reg.Counter("sim.sweep.fallback." + grid).Inc()
	}
}

// sweepShards resolves how many config shards a sweep call runs:
// 1 (sequential) unless the options grant more than one worker and the
// grid has more than one config, else min(workers, configs).
func sweepShards(opts Options, ncfg int) int {
	w := opts.workers()
	if w <= 1 || ncfg <= 1 {
		return 1
	}
	return min(w, ncfg)
}

// sweepShard is one scheduled slice of a sharded sweep: the sub-grid
// covering configs [lo, hi) of the parent, in grid order.
type sweepShard struct {
	lo, hi int
	grid   bp.SweepGrid
}

// planShards partitions the grid's ncfg configs into n balanced
// contiguous shards, each the grid's own Shard over its range.
func planShards(grid bp.SweepGrid, ncfg, n int) []sweepShard {
	shards := make([]sweepShard, 0, n)
	base, rem := ncfg/n, ncfg%n
	lo := 0
	for i := 0; i < n; i++ {
		hi := lo + base
		if i < rem {
			hi++
		}
		shards = append(shards, sweepShard{lo: lo, hi: hi, grid: grid.Shard(lo, hi)})
		lo = hi
	}
	return shards
}

// shardAccount reports the shard-scheduling counters:
// sim.sweep.runs.sharded (sharded calls) and sim.sweep.shards (cells
// scheduled). Both depend only on (grid, options), never on scheduling.
func shardAccount(reg *obs.Registry, shards []sweepShard) {
	reg.Counter("sim.sweep.runs.sharded").Inc()
	reg.Counter("sim.sweep.shards").Add(int64(len(shards)))
}

// sweepEngine replays the whole packed trace through one grid as a
// single block, adding each config's correct count into correct
// (len(correct) = config count). It is the unit of scheduling: the
// sequential path calls it once with the full grid, the sharded path
// once per shard with a sub-grid and the matching slice of the output
// vector.
func sweepEngine(pt *trace.Packed, grid bp.SweepGrid, correct []int64) {
	blk, _ := pt.Blocks(pt.Len()).Next()
	scratch := make([]int32, len(correct))
	grid.SweepBlock(bp.KernelBlock{IDs: blk.IDs, Taken: blk.Taken, Back: blk.Back, Addrs: pt.Addrs(), Lo: 0, Hi: blk.Len()}, scratch)
	for c, v := range scratch {
		correct[c] += int64(v)
	}
}

// scalarOnly hides a predictor's columnar kernel, so a PredictorGrid
// replays it through the scalar bp.Replay loop.
type scalarOnly struct{ bp.Predictor }

// referenceGrid is the grid a ForceReference sweep runs: the grid's
// independent scalar configs with their kernels hidden.
func referenceGrid(grid bp.SweepGrid) bp.SweepGrid {
	cfgs := grid.Configs()
	preds := make([]bp.Predictor, len(cfgs))
	for c, p := range cfgs {
		preds[c] = scalarOnly{p}
	}
	return bp.NewPredictorGrid(grid.GridName(), preds)
}

// SimulateSweep drives an entire config grid over the trace in one call
// and returns the per-config correct counts in grid order, replaying the
// trace's memoized packed columns through grid.SweepBlock: a fused grid
// updates every config from a single walk (configs × records
// predictions for one column pass), a bp.PredictorGrid replays each
// config on its own best path. opts.ForceReference instead sweeps a
// PredictorGrid over grid.Configs() with their kernels hidden, so every
// config replays the scalar bp.Replay loop. The package's sweep
// differential tests pin every grid and both modes bit-identical, per
// config, to independent Simulate runs.
//
// opts.Parallel > 1 shards the grid's configs across the runner pool
// (see Options.Parallel); the outcome is byte-identical at every
// setting.
//
// Engagement and volume report into opts.Observer (default
// obs.Default()): sim.sweep.runs.{fused,fallback} and per-grid
// sim.sweep.{fused,fallback}.<grid> (fallback: a PredictorGrid or a
// ForceReference run), plus sim.sweep.configs, sim.sweep.records, and
// sim.sweep.predictions (configs × records); sharded calls add
// sim.sweep.runs.sharded and sim.sweep.shards.
func SimulateSweep(t *trace.Trace, grid bp.SweepGrid, opts Options) *SweepOutcome {
	reg := obs.Or(opts.Observer)
	defer reg.StartSpan("sim.simulate_sweep").End()
	pt := t.Packed()
	out := newSweepOutcome(grid, t.Name())
	out.Total = pt.Len()
	_, perConfig := grid.(*bp.PredictorGrid)
	sweepAccount(reg, out.Grid, len(out.Configs), pt.Len(), !perConfig && !opts.ForceReference)
	if opts.ForceReference {
		grid = referenceGrid(grid)
	}
	n := sweepShards(opts, len(out.Configs))
	if n <= 1 {
		sweepEngine(pt, grid, out.Correct)
		return out
	}
	shards := planShards(grid, len(out.Configs), n)
	shardAccount(reg, shards)
	cells := make([]runner.Cell, len(shards))
	for i, sh := range shards {
		sh := sh
		seg := out.Correct[sh.lo:sh.hi:sh.hi]
		cells[i] = runner.Cell{
			Exhibit:  "sweep-shard",
			Workload: fmt.Sprintf("%s/%d", t.Name(), i),
			Run: func(context.Context) error {
				sweepEngine(pt, sh.grid, seg)
				return nil
			},
		}
	}
	err := runner.Run(context.Background(), cells, runner.Options{Parallel: len(cells)})
	if err != nil {
		// Unreachable: cells never fail and the context is never
		// cancelled; a scheduler error here is a bug, not a condition.
		panic("sim: SimulateSweep scheduler failed: " + err.Error())
	}
	return out
}
