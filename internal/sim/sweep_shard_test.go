package sim

import (
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/obs"
)

// Differential suite for the config-sharded sweep scheduler: at every
// Parallel setting, SimulateSweep must produce byte-identical outcomes
// to the sequential engine, for every grid family — fused and
// per-config alike. Run under -race these tests also pin that shards
// share no mutable state.

// shardTestGrids extends the engine grids with the remaining fused
// families.
func shardTestGrids() map[string]func() bp.SweepGrid {
	grids := sweepTestGrids()
	grids["hybrid-fused"] = func() bp.SweepGrid {
		return bp.NewHybridSweep([]uint{3, 6, 9, 12}, 7, 6)
	}
	grids["if-gshare-fused"] = func() bp.SweepGrid {
		return bp.NewIFGshareSweep([]uint{2, 6, 10})
	}
	grids["if-pas-fused"] = func() bp.SweepGrid {
		return bp.NewIFPAsSweep([]uint{3, 7})
	}
	return grids
}

// TestSimulateSweepShardedMatchesSequential is the scheduler's
// acceptance invariant: identical outcomes at every shard count, for
// fused and ForceReference engines.
func TestSimulateSweepShardedMatchesSequential(t *testing.T) {
	tr := randomTrace(59, 30_000)
	for name, mk := range shardTestGrids() {
		base := SimulateSweep(tr, mk(), Options{})
		for _, par := range []int{0, 1, 2, 3, -1} {
			out := SimulateSweep(tr, mk(), Options{Parallel: par})
			sameSweep(t, name+"/sharded", out, base.Correct, base.Total)
		}
		ref := SimulateSweep(tr, mk(), Options{ForceReference: true, Parallel: 2})
		sameSweep(t, name+"/sharded-reference", ref, base.Correct, base.Total)
	}
}

// TestSimulateSweepShardObsCounters pins the scheduler's observability
// contract: shard counts are scheduling-independent functions of (grid,
// options).
func TestSimulateSweepShardObsCounters(t *testing.T) {
	tr := randomTrace(7, 5_000)
	count := func(reg *obs.Registry, name string) int64 {
		return reg.Counter(name).Value()
	}

	// Fused grid: one sharded run of three shards.
	reg := obs.New()
	SimulateSweep(tr, bp.NewGshareSweep([]uint{2, 4, 6, 8, 10}), Options{Parallel: 3, Observer: reg})
	if got := count(reg, "sim.sweep.runs.sharded"); got != 1 {
		t.Errorf("runs.sharded = %d, want 1", got)
	}
	if got := count(reg, "sim.sweep.shards"); got != 3 {
		t.Errorf("shards = %d, want 3", got)
	}

	// Sequential options: no shard counters at all.
	reg = obs.New()
	SimulateSweep(tr, bp.NewGshareSweep([]uint{2, 4}), Options{Observer: reg})
	if got := count(reg, "sim.sweep.runs.sharded"); got != 0 {
		t.Errorf("sequential runs.sharded = %d, want 0", got)
	}

	// A predictor grid shards the same way.
	reg = obs.New()
	SimulateSweep(tr, bp.NewPredictorGrid("plain", []bp.Predictor{
		bp.NewGshare(4), bp.NewGshare(6), bp.NewGshare(8),
	}), Options{Parallel: 3, Observer: reg})
	if got := count(reg, "sim.sweep.shards"); got != 3 {
		t.Errorf("plain-grid shards = %d, want 3", got)
	}

	// Shard count never exceeds the config count.
	reg = obs.New()
	SimulateSweep(tr, bp.NewGshareSweep([]uint{2, 4}), Options{Parallel: 16, Observer: reg})
	if got := count(reg, "sim.sweep.shards"); got != 2 {
		t.Errorf("capped shards = %d, want 2", got)
	}
}
