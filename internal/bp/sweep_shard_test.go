// Shard-composition suite for SweepGrid.Shard: a grid's
// configs share no counter state, so replaying the trace through the
// shards of any contiguous partition must reproduce, per config, the
// exact counts of the unsharded replay — the invariant the sim
// package's config-sharded scheduler composes results by.
package bp_test

import (
	"testing"

	"branchcorr/internal/bp"
)

// shardRanges partitions n configs into k balanced contiguous ranges,
// mirroring the sim scheduler's plan.
func shardRanges(n, k int) [][2]int {
	base, rem := n/k, n%k
	var out [][2]int
	lo := 0
	for i := 0; i < k; i++ {
		hi := lo + base
		if i < rem {
			hi++
		}
		if hi > lo {
			out = append(out, [2]int{lo, hi})
		}
		lo = hi
	}
	return out
}

// TestSweepShardComposition pins, for every grid, that each shard of
// every partition has totals and config names equal to the matching
// slice of the full grid's.
func TestSweepShardComposition(t *testing.T) {
	tr := kernelRandomTrace(29, 20_000)
	pt := tr.Packed()
	for family, mk := range allSweepGrids() {
		g := mk()
		names := g.ConfigNames()
		n := len(names)
		want := sweepTotals(g, pt, 1000)
		for _, k := range []int{1, 2, 3, n} {
			for _, r := range shardRanges(n, k) {
				lo, hi := r[0], r[1]
				sub := mk().Shard(lo, hi)
				subNames := sub.ConfigNames()
				for c := range subNames {
					if subNames[c] != names[lo+c] {
						t.Errorf("%s shard [%d,%d): config %d named %q, want %q",
							family, lo, hi, c, subNames[c], names[lo+c])
					}
				}
				got := sweepTotals(sub, pt, 1000)
				for c := range got {
					if got[c] != want[lo+c] {
						t.Errorf("%s shard [%d,%d): config %s: %d correct vs %d unsharded",
							family, lo, hi, subNames[c], got[c], want[lo+c])
					}
				}
			}
		}
	}
}

// TestSweepShardRangeValidation pins the loud failure on malformed
// ranges for every grid.
func TestSweepShardRangeValidation(t *testing.T) {
	for family, mk := range allSweepGrids() {
		n := len(mk().ConfigNames())
		for name, r := range map[string][2]int{
			"negative": {-1, 1}, "empty": {1, 1}, "inverted": {2, 1}, "over": {0, n + 1},
		} {
			t.Run(family+"/"+name, func(t *testing.T) {
				defer func() {
					if recover() == nil {
						t.Error("Shard did not panic")
					}
				}()
				mk().Shard(r[0], r[1])
			})
		}
	}
}

// TestPredictorGridShardSharesInstances pins the per-config grid's shard
// semantics: the shard is a view over the SAME held predictor
// instances (they carry the simulation state the caller composed), not
// fresh copies, under a range-suffixed name.
func TestPredictorGridShardSharesInstances(t *testing.T) {
	preds := []bp.Predictor{bp.NewGshare(5), bp.NewBimodal(6), bp.NewPath(4, 6)}
	g := bp.NewPredictorGrid("mixed", preds)
	sub := g.Shard(1, 3)
	if got := sub.GridName(); got != "mixed[1:3)" {
		t.Errorf("shard grid name %q", got)
	}
	sp := sub.Configs()
	if len(sp) != 2 || sp[0] != preds[1] || sp[1] != preds[2] {
		t.Error("PredictorGrid shard must return views over the held instances")
	}
}
