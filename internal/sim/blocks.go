package sim

import (
	"branchcorr/internal/bp"
	"branchcorr/internal/obs"
	"branchcorr/internal/trace"
)

// SimulateBlocks drives every predictor over a streaming block source in
// bounded memory: one pass, one chunk resident at a time, so trace
// length is limited by disk, not RAM. It runs the same engine loop as
// Simulate (which replays an in-memory trace as a one-chunk source), so
// results are bit-identical to Simulate over the equivalent in-memory
// trace at any chunk size. opts.BucketSize works as in Simulate;
// opts.Parallel is moot (all predictors advance together through the
// single streaming pass, which is what bounds the memory).
//
// The pass reports into opts.Observer (default obs.Default()): the same
// per-predictor engine counters Simulate uses, plus sim.stream.blocks
// and the peak-resident-chunk gauge sim.stream.peak_block_bytes.
func SimulateBlocks(src trace.BlockSource, predictors []bp.Predictor, opts Options) (*Outcome, error) {
	reg := obs.Or(opts.Observer)
	if len(predictors) == 0 {
		return newOutcome(predictors, opts.BucketSize), src.Err()
	}
	defer reg.StartSpan("sim.simulate_blocks").End()
	return simulate(meteredSource{src, reg}, predictors, opts, reg)
}

// meteredSource accounts every chunk a streamed run consumes:
// sim.stream.blocks and the peak resident chunk (columns plus intern
// table) in sim.stream.peak_block_bytes.
type meteredSource struct {
	trace.BlockSource
	reg *obs.Registry
}

func (m meteredSource) Next() (trace.Block, bool) {
	blk, ok := m.BlockSource.Next()
	if ok {
		m.reg.Counter("sim.stream.blocks").Inc()
		m.reg.Gauge("sim.stream.peak_block_bytes").Max(int64(blk.Bytes() + len(m.Addrs())*4))
	}
	return blk, ok
}
