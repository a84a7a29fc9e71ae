package experiments

import (
	"branchcorr/internal/bp"
	"branchcorr/internal/sim"
	"branchcorr/internal/textplot"
	"branchcorr/internal/trace"
)

// HybridRow compares hybrid organizations for one benchmark (extension
// exhibit completing section 5.2: Figure 9 shows WHY hybrids win; this
// measures how much of the ideal per-branch choice real choosers
// recover).
type HybridRow struct {
	Benchmark string
	Gshare    float64
	PAs       float64
	// McFarling is the classic hybrid with an address-indexed chooser.
	McFarling float64
	// Tournament is the Alpha-style hybrid with a history-indexed
	// chooser.
	Tournament float64
	// Ideal is the per-static-branch oracle choice between the gshare
	// and PAs accounts — the best any chooser that assigns each static
	// branch to ONE component for the whole run can do. Real choosers
	// switch per dynamic instance, so they can (and sometimes do)
	// exceed it.
	Ideal float64
}

// HybridsResult is the hybrid-organization comparison.
type HybridsResult struct {
	Rows []HybridRow
}

// hybridsCell measures both real hybrid organizations on one benchmark
// against their components and the per-branch ideal combination.
func (s *Suite) hybridsCell(tr *trace.Trace) HybridRow {
	s.log("%s: hybrid organizations", tr.Name())
	b := s.baseFor(tr)
	rs := s.simRun(tr,
		bp.NewHybrid(newGshare(), newPAs(), 12),
		bp.NewTournament(pasHistBits, pasBHTBits, gshareBits, 12),
	)
	ideal := sim.CombineMax("ideal", b.gshare, b.pas)
	return HybridRow{
		Benchmark:  tr.Name(),
		Gshare:     b.gshare.Accuracy(),
		PAs:        b.pas.Accuracy(),
		McFarling:  rs[0].Accuracy(),
		Tournament: rs[1].Accuracy(),
		Ideal:      ideal.Accuracy(),
	}
}

// Render formats the comparison.
func (r *HybridsResult) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Benchmark,
			pct(row.Gshare), pct(row.PAs),
			pct(row.McFarling), pct(row.Tournament), pct(row.Ideal),
		}
	}
	return textplot.Table(
		"Extension. Hybrid organizations vs the ideal per-branch choice (section 5.2 completed)",
		[]string{"Benchmark", "gshare", "PAs", "McFarling hybrid", "tournament", "static per-branch oracle"},
		rows)
}
