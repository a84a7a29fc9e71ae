package experiments

import (
	"fmt"

	"branchcorr/internal/textplot"
	"branchcorr/internal/trace"
	"branchcorr/internal/workloads"
)

// Table1Row summarizes one benchmark, mirroring the paper's Table 1
// (benchmark, input, dynamic conditional branch count) with the extra
// columns a synthetic workload makes informative.
type Table1Row struct {
	Benchmark string
	Input     string // workload description (stands in for the input set)
	Branches  int
	Static    int
	TakenRate float64
}

// Table1Result is the paper's Table 1 over the suite's traces.
type Table1Result struct {
	Rows []Table1Row
}

// table1Cell computes one benchmark's Table 1 row.
func (s *Suite) table1Cell(tr *trace.Trace) Table1Row {
	w, _ := workloads.ByName(tr.Name())
	st := trace.Summarize(tr)
	desc := ""
	if w != nil {
		desc = w.Description()
	}
	return Table1Row{
		Benchmark: tr.Name(),
		Input:     desc,
		Branches:  st.Dynamic,
		Static:    st.Static,
		TakenRate: st.TakenRate(),
	}
}

// Render formats the table.
func (r *Table1Result) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Benchmark,
			row.Input,
			fmt.Sprintf("%d", row.Branches),
			fmt.Sprintf("%d", row.Static),
			pct(row.TakenRate),
		}
	}
	return textplot.Table(
		"Table 1. Summary of the benchmarks along with the synthetic workloads",
		[]string{"Benchmark", "Workload (stands in for input set)", "# of Branches", "Static sites", "Taken %"},
		rows)
}
