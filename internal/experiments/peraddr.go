package experiments

import (
	"branchcorr/internal/core"
	"branchcorr/internal/sim"
	"branchcorr/internal/textplot"
	"branchcorr/internal/trace"
)

// Figure6Row holds one benchmark's per-address class distribution
// (dynamic-weighted), mirroring the paper's Figure 6.
type Figure6Row struct {
	Benchmark string
	// Frac indexed by core.PAClass (static, loop, repeating,
	// non-repeating); fractions of dynamic branches.
	Frac [4]float64
	// StaticHighBias is the share of the static class that is >99%
	// biased (the paper reports 88% on average).
	StaticHighBias float64
}

// Figure6Result reproduces Figure 6.
type Figure6Result struct {
	Rows []Figure6Row
}

// figure6Cell classifies one benchmark's branches.
func (s *Suite) figure6Cell(tr *trace.Trace) Figure6Row {
	cl := s.classFor(tr)
	row := Figure6Row{Benchmark: tr.Name(), StaticHighBias: cl.StaticHighBiasFrac()}
	for c := core.ClassStatic; c <= core.ClassNonRepeating; c++ {
		row.Frac[c] = cl.Frac(c)
	}
	return row
}

// Render formats the distribution as stacked bars.
func (r *Figure6Result) Render() string {
	groups := make([]string, len(r.Rows))
	vals := make([][]float64, len(r.Rows))
	for i, row := range r.Rows {
		groups[i] = row.Benchmark
		vals[i] = row.Frac[:]
	}
	out := textplot.StackedBars(
		"Figure 6. Fraction of branches in each per-address class (dynamic-weighted)",
		groups,
		[]string{"Ideal Static", "Loop", "Repeating Pattern", "Non-Repeating Pattern"},
		vals)
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Benchmark, pct(row.StaticHighBias)}
	}
	return out + textplot.Table("(share of the ideal-static class that is >99% biased)",
		[]string{"Benchmark", ">99% biased share"}, rows)
}

// Table3Row holds one benchmark's row of the paper's Table 3.
type Table3Row struct {
	Benchmark string
	PAs       float64
	PAsLoop   float64 // PAs with the loop predictor for loop-class branches
	IFPAs     float64
	IFPAsLoop float64
}

// Table3Result reproduces Table 3: PAs with and without the loop
// enhancement.
type Table3Result struct {
	Rows []Table3Row
}

// table3Cell computes one benchmark's Table 3 row, with the hypothetical
// "PAs w/ Loop" combiners: the loop predictor's accuracy is used for
// every branch the classification put in the loop class, PAs (or IF-PAs)
// for the rest.
func (s *Suite) table3Cell(tr *trace.Trace) Table3Row {
	cl := s.classFor(tr)
	pas := s.baseFor(tr).pas
	isLoop := func(pc trace.Addr) bool { return cl.Class[pc] == core.ClassLoop }
	pasLoop := sim.CombineSelect("PAs w/ Loop", cl.Loop, pas, isLoop)
	ifpasLoop := sim.CombineSelect("IF PAs w/ Loop", cl.Loop, cl.IFPAs, isLoop)
	return Table3Row{
		Benchmark: tr.Name(),
		PAs:       pas.Accuracy(),
		PAsLoop:   pasLoop.Accuracy(),
		IFPAs:     cl.IFPAs.Accuracy(),
		IFPAsLoop: ifpasLoop.Accuracy(),
	}
}

// Render formats the table.
func (r *Table3Result) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Benchmark,
			pct(row.PAs), pct(row.PAsLoop),
			pct(row.IFPAs), pct(row.IFPAsLoop),
		}
	}
	return textplot.Table(
		"Table 3. Prediction accuracy of PAs w/ and w/o loop enhancement",
		[]string{"Benchmark", "PAs", "PAs w/ Loop", "IF PAs", "IF PAs w/ Loop"},
		rows)
}
