package experiments

import (
	"context"

	"branchcorr/internal/bp"
	"branchcorr/internal/textplot"
	"branchcorr/internal/trace"
)

// ExtraResult is the user-spec'd predictor exhibit: one accuracy column
// per Config.ExtraSpecs entry, one row per benchmark. It exists so a
// cmd/experiments invocation can drop any bp.Parse-able predictor into
// the suite's workloads (repeatable -p flag) without touching the
// paper exhibits.
type ExtraResult struct {
	Specs      []string    `json:"specs"`
	Benchmarks []string    `json:"benchmarks"`
	Acc        [][]float64 `json:"acc"` // [benchmark][spec], fraction in [0,1]
}

// extraCell parses and runs the extra specs on one benchmark. Specs
// parse per trace with the full profiling Env, so context-hungry specs
// (ideal-static, profiled-gshare) work per workload.
func (s *Suite) extraCell(_ context.Context, tr *trace.Trace) ([]float64, error) {
	s.log("%s: extra predictors %v", tr.Name(), s.cfg.ExtraSpecs)
	env := bp.Env{Stats: trace.Summarize(tr), Trace: tr}
	preds, err := bp.ParseAll(s.cfg.ExtraSpecs, env)
	if err != nil {
		return nil, err
	}
	rs := s.simRun(tr, preds...)
	row := make([]float64, len(rs))
	for i, r := range rs {
		row[i] = r.Accuracy()
	}
	return row, nil
}

// Render formats the extra-predictor table.
func (r *ExtraResult) Render() string {
	rows := make([][]string, len(r.Benchmarks))
	for i, b := range r.Benchmarks {
		rows[i] = []string{b}
		for _, a := range r.Acc[i] {
			rows[i] = append(rows[i], pct(a))
		}
	}
	return textplot.Table(
		"Extra. User-specified predictors (-p) across the suite workloads",
		append([]string{"Benchmark"}, r.Specs...),
		rows)
}
