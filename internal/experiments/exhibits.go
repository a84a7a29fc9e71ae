package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"branchcorr/internal/runner"
	"branchcorr/internal/trace"
)

// exhibit is one row of the report's exhibit table.
type exhibit struct {
	name string
	// cells allocates the exhibit's result in r and returns the cells
	// that fill it: one per suite trace (one per Figure 9 benchmark for
	// fig9), each writing its own pre-assigned slot.
	cells func(s *Suite, r *Report) []runner.Cell
	// result returns the exhibit's result in r, and false when r does
	// not hold it.
	result func(r *Report) (renderer, bool)
}

// renderer is the method every exhibit result has.
type renderer interface{ Render() string }

// exhibits is the report's exhibit table in canonical order: the paper's
// tables and figures, then the extensions. Every exhibit is declared here
// and nowhere else.
var exhibits = [...]exhibit{
	{"table1", func(s *Suite, r *Report) []runner.Cell {
		r.Table1 = &Table1Result{Rows: make([]Table1Row, len(s.traces))}
		return perTrace(s, r.Table1.Rows, s.table1Cell)
	}, func(r *Report) (renderer, bool) { return r.Table1, r.Table1 != nil }},
	{"fig4", func(s *Suite, r *Report) []runner.Cell {
		r.Figure4 = &Figure4Result{Rows: make([]Figure4Row, len(s.traces))}
		return perTrace(s, r.Figure4.Rows, s.figure4Cell)
	}, func(r *Report) (renderer, bool) { return r.Figure4, r.Figure4 != nil }},
	{"fig5", func(s *Suite, r *Report) []runner.Cell {
		r.Figure5 = &Figure5Result{
			Windows:    s.cfg.Fig5Windows,
			Benchmarks: s.names(),
			Acc:        make([][]float64, len(s.traces)),
		}
		return perTraceErr(s, r.Figure5.Acc, s.figure5Cell)
	}, func(r *Report) (renderer, bool) { return r.Figure5, r.Figure5 != nil }},
	{"table2", func(s *Suite, r *Report) []runner.Cell {
		r.Table2 = &Table2Result{Rows: make([]Table2Row, len(s.traces))}
		return perTrace(s, r.Table2.Rows, s.table2Cell)
	}, func(r *Report) (renderer, bool) { return r.Table2, r.Table2 != nil }},
	{"fig6", func(s *Suite, r *Report) []runner.Cell {
		r.Figure6 = &Figure6Result{Rows: make([]Figure6Row, len(s.traces))}
		return perTrace(s, r.Figure6.Rows, s.figure6Cell)
	}, func(r *Report) (renderer, bool) { return r.Figure6, r.Figure6 != nil }},
	{"table3", func(s *Suite, r *Report) []runner.Cell {
		r.Table3 = &Table3Result{Rows: make([]Table3Row, len(s.traces))}
		return perTrace(s, r.Table3.Rows, s.table3Cell)
	}, func(r *Report) (renderer, bool) { return r.Table3, r.Table3 != nil }},
	{"fig7", func(s *Suite, r *Report) []runner.Cell {
		r.Figure7 = &SplitResult{
			Title:  "Figure 7. Branches best predicted by gshare, PAs, and ideal static (dynamic-weighted)",
			Labels: [3]string{"Ideal Static Best", "Gshare Best", "PAs Best"},
			Rows:   make([]SplitRow, len(s.traces)),
		}
		return perTrace(s, r.Figure7.Rows, func(tr *trace.Trace) SplitRow { return splitCell(tr, s.figure7Split) })
	}, func(r *Report) (renderer, bool) { return r.Figure7, r.Figure7 != nil }},
	{"fig8", func(s *Suite, r *Report) []runner.Cell {
		r.Figure8 = &SplitResult{
			Title:  "Figure 8. Branches best predicted by global correlation, per-address classes, and ideal static",
			Labels: [3]string{"Ideal Static Best", "Global Best", "Per-Address Best"},
			Rows:   make([]SplitRow, len(s.traces)),
		}
		return perTrace(s, r.Figure8.Rows, func(tr *trace.Trace) SplitRow { return splitCell(tr, s.figure8Split) })
	}, func(r *Report) (renderer, bool) { return r.Figure8, r.Figure8 != nil }},
	{"fig9", func(s *Suite, r *Report) []runner.Cell {
		r.Figure9 = &Figure9Result{
			Percentiles: slices.Clone(fig9Percentiles),
			Benchmarks:  slices.Clone(fig9Benchmarks),
			Diff:        make([][]float64, len(fig9Benchmarks)),
		}
		return cellsOver(fig9Benchmarks, func(_ context.Context, i int) (err error) {
			r.Figure9.Diff[i], err = s.figure9Cell(fig9Benchmarks[i])
			return err
		})
	}, func(r *Report) (renderer, bool) { return r.Figure9, r.Figure9 != nil }},
	// Extension: in-path vs direction correlation decomposition.
	{"inpath", func(s *Suite, r *Report) []runner.Cell {
		r.InPath = &InPathResult{Rows: make([]InPathRow, len(s.traces))}
		return perTrace(s, r.InPath.Rows, s.inPathCell)
	}, func(r *Report) (renderer, bool) { return r.InPath, r.InPath != nil }},
	// Extension: achieved accuracy vs entropy ceilings.
	{"ceiling", func(s *Suite, r *Report) []runner.Cell {
		r.Ceiling = &CeilingResult{HistoryBits: ceilingHistoryBits, Rows: make([]CeilingRow, len(s.traces))}
		return perTrace(s, r.Ceiling.Rows, s.ceilingCell)
	}, func(r *Report) (renderer, bool) { return r.Ceiling, r.Ceiling != nil }},
	// Extension: hybrid organizations vs the ideal per-branch choice.
	{"hybrids", func(s *Suite, r *Report) []runner.Cell {
		r.Hybrids = &HybridsResult{Rows: make([]HybridRow, len(s.traces))}
		return perTrace(s, r.Hybrids.Rows, s.hybridsCell)
	}, func(r *Report) (renderer, bool) { return r.Hybrids, r.Hybrids != nil }},
	// Extension: cold-start vs steady-state accuracy.
	{"training", func(s *Suite, r *Report) []runner.Cell {
		r.Training = &TrainingResult{Bucket: s.trainingBucket(), Rows: make([]TrainingRow, len(s.traces))}
		return perTrace(s, r.Training.Rows, s.trainingCell)
	}, func(r *Report) (renderer, bool) { return r.Training, r.Training != nil }},
	// Extension: fused gshare history sweep, one pass per workload.
	{"sweeps", func(s *Suite, r *Report) []runner.Cell {
		r.Sweeps = &SweepsResult{
			Bits:       slices.Clone(sweepGshareBits),
			Benchmarks: s.names(),
			Acc:        make([][]float64, len(s.traces)),
		}
		return perTrace(s, r.Sweeps.Acc, s.sweepsCell)
	}, func(r *Report) (renderer, bool) { return r.Sweeps, r.Sweeps != nil }},
	// User-specified predictors (Config.ExtraSpecs); with none, the
	// exhibit has no cells and no result, so default reports are
	// unchanged.
	{"extra", func(s *Suite, r *Report) []runner.Cell {
		if len(s.cfg.ExtraSpecs) == 0 {
			return nil
		}
		r.Extra = &ExtraResult{
			Specs:      s.cfg.ExtraSpecs,
			Benchmarks: s.names(),
			Acc:        make([][]float64, len(s.traces)),
		}
		return perTraceErr(s, r.Extra.Acc, s.extraCell)
	}, func(r *Report) (renderer, bool) { return r.Extra, r.Extra != nil }},
}

// cellsOver returns one cell per workload name, the i-th running
// run(ctx, i).
func cellsOver(names []string, run func(ctx context.Context, i int) error) []runner.Cell {
	cells := make([]runner.Cell, len(names))
	for i, name := range names {
		cells[i] = runner.Cell{Workload: name, Run: func(ctx context.Context) error { return run(ctx, i) }}
	}
	return cells
}

// perTraceErr returns one cell per suite trace, the i-th storing
// cell(ctx, trace i) in rows[i].
func perTraceErr[R any](s *Suite, rows []R, cell func(context.Context, *trace.Trace) (R, error)) []runner.Cell {
	return cellsOver(s.names(), func(ctx context.Context, i int) (err error) {
		rows[i], err = cell(ctx, s.traces[i])
		return err
	})
}

// perTrace is perTraceErr for a cell that cannot fail.
func perTrace[R any](s *Suite, rows []R, cell func(*trace.Trace) R) []runner.Cell {
	return perTraceErr(s, rows, func(_ context.Context, tr *trace.Trace) (R, error) { return cell(tr), nil })
}

// ExhibitOrder returns the canonical exhibit names in report order: the
// paper's tables and figures first, then the extensions. Rendered
// reports always print exhibits in this order, which is what makes the
// parallel runner's output byte-identical to a sequential run.
func ExhibitOrder() []string {
	names := make([]string, len(exhibits))
	for i, e := range exhibits {
		names[i] = e.name
	}
	return names
}

// NormalizeExhibits validates the requested exhibit names and returns
// them deduplicated in canonical order; nil or empty requests everything.
// BuildReport applies it to its request; a caller can apply it first to
// reject a bad request before paying for the suite's traces.
func NormalizeExhibits(names []string) ([]string, error) {
	if len(names) == 0 {
		return ExhibitOrder(), nil
	}
	want := map[string]bool{}
	for _, e := range names {
		e = strings.TrimSpace(e)
		if !slices.ContainsFunc(exhibits[:], func(x exhibit) bool { return x.name == e }) {
			return nil, fmt.Errorf("unknown exhibit %q (have %s)", e, strings.Join(ExhibitOrder(), ","))
		}
		want[e] = true
	}
	var out []string
	for _, e := range exhibits {
		if want[e.name] {
			out = append(out, e.name)
		}
	}
	return out, nil
}

// BuildReport computes the requested exhibits (nil means all) across a
// worker pool and merges the results into a Report. The report is
// decomposed into (exhibit × workload) cells; every cell writes into a
// pre-assigned result slot, so the merged report — and hence the
// rendered text and JSON — is byte-identical no matter how many workers
// opts.Parallel selects. The first failing cell cancels the pool and is
// returned as the error.
func (s *Suite) BuildReport(ctx context.Context, names []string, opts runner.Options) (*Report, error) {
	want, err := NormalizeExhibits(names)
	if err != nil {
		return nil, err
	}
	// Figure 5 reads every one of its windows from the per-trace oracle
	// grid that also serves the default window.
	s.oracleWindows = s.gridWindows(slices.Contains(want, "fig5"))
	report := s.newReport()
	var cells []runner.Cell
	for _, e := range exhibits {
		if !slices.Contains(want, e.name) {
			continue
		}
		for _, c := range e.cells(s, report) {
			c.Exhibit = e.name
			cells = append(cells, c)
		}
	}

	// Every run instruments cell lifecycle into the suite's registry on
	// top of whatever observer the caller supplied.
	opts.Observer = runner.Chain(runner.RegistryObserver(s.obs), opts.Observer)
	if err := runner.Run(ctx, cells, opts); err != nil {
		return nil, err
	}
	return report, nil
}

// Render renders every present exhibit in canonical order, one per
// line-separated block — the exact text cmd/experiments prints.
func (r *Report) Render() string {
	var sb strings.Builder
	for _, e := range exhibits {
		if res, ok := e.result(r); ok {
			sb.WriteString(res.Render())
			sb.WriteString("\n")
		}
	}
	return sb.String()
}
