package experiments

import (
	"fmt"

	"branchcorr/internal/bp"
	"branchcorr/internal/textplot"
	"branchcorr/internal/trace"
)

// SweepsResult is the fused-sweeps exhibit: gshare accuracy as a
// function of global history length, one curve per benchmark. Unlike
// Figure 5 (whose per-window oracle passes dominate), this grid is pure
// table-predictor state, so the whole curve comes out of one fused
// trace pass per benchmark (bp.GshareSweep under sim.SimulateSweep) —
// the exhibit doubles as a live demonstration that the fused engine
// produces figure-shaped results at aggregate multi-config throughput.
type SweepsResult struct {
	Bits       []uint
	Benchmarks []string
	// Acc[bi][ci] is benchmark bi's gshare accuracy at Bits[ci] history
	// bits.
	Acc [][]float64
}

// sweepsCell computes one benchmark's accuracy curve. Each cell builds
// its own grid instance: a sweep grid carries per-config predictor
// state bound to one trace walk, exactly like a predictor instance.
func (s *Suite) sweepsCell(tr *trace.Trace) []float64 {
	out := s.simSweep(tr, bp.NewGshareSweep(sweepGshareBits))
	accs := make([]float64, len(out.Configs))
	for c := range accs {
		accs[c] = out.Accuracy(c)
	}
	return accs
}

// Render formats the sweep as a line chart plus a value table.
func (r *SweepsResult) Render() string {
	xs := make([]float64, len(r.Bits))
	header := []string{"Benchmark"}
	for i, b := range r.Bits {
		xs[i] = float64(b)
		header = append(header, fmt.Sprintf("h=%d", b))
	}
	ys := make([][]float64, len(r.Benchmarks))
	rows := make([][]string, len(r.Benchmarks))
	for bi, name := range r.Benchmarks {
		ys[bi] = make([]float64, len(r.Bits))
		rows[bi] = []string{name}
		for ci := range r.Bits {
			ys[bi][ci] = 100 * r.Acc[bi][ci]
			rows[bi] = append(rows[bi], pct(r.Acc[bi][ci]))
		}
	}
	return textplot.Lines(
		"Fused sweep. gshare accuracy as a function of history length (one pass per benchmark)",
		xs, r.Benchmarks, ys, "prediction accuracy %") +
		textplot.Table("(values)", header, rows)
}
