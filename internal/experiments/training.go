package experiments

import (
	"fmt"

	"branchcorr/internal/bp"
	"branchcorr/internal/sim"
	"branchcorr/internal/textplot"
	"branchcorr/internal/trace"
)

// TrainingRow quantifies training time for one benchmark (extension
// exhibit). The paper repeatedly attributes part of gshare's shortfall
// to "increased training time" (§3.3, §3.6.3); this exhibit measures it
// directly as the gap between a predictor's accuracy over its first
// branches and its steady state.
type TrainingRow struct {
	Benchmark string
	// ColdGshare/WarmGshare are gshare's accuracy over the first bucket
	// and the mean of the last half of the run.
	ColdGshare, WarmGshare float64
	// ColdIFGshare/WarmIFGshare isolate training from interference: the
	// IF variant trains one private pattern table per branch, which is
	// MORE state to warm up.
	ColdIFGshare, WarmIFGshare float64
	// ColdBimodal/WarmBimodal is the low-state baseline: one counter per
	// branch trains almost immediately.
	ColdBimodal, WarmBimodal float64
}

// TrainingResult is the training-time exhibit.
type TrainingResult struct {
	Bucket int
	Rows   []TrainingRow
}

// trainingBucket is the timeline bucket size the training exhibit uses.
func (s *Suite) trainingBucket() int {
	bucket := s.cfg.Length / 20
	if bucket < 1000 {
		bucket = 1000
	}
	return bucket
}

// trainingCell measures one benchmark's cold-start vs steady state.
func (s *Suite) trainingCell(tr *trace.Trace) TrainingRow {
	s.log("%s: training timelines", tr.Name())
	tls := s.simTimeline(tr, s.trainingBucket(),
		newGshare(), newIFGshare(), bp.NewBimodal(14))
	row := TrainingRow{Benchmark: tr.Name()}
	row.ColdGshare, row.WarmGshare = coldWarm(tls[0])
	row.ColdIFGshare, row.WarmIFGshare = coldWarm(tls[1])
	row.ColdBimodal, row.WarmBimodal = coldWarm(tls[2])
	return row
}

func coldWarm(tl *sim.Timeline) (cold, warm float64) {
	if len(tl.Accuracy) == 0 {
		return 0, 0
	}
	cold = tl.Accuracy[0]
	half := tl.Accuracy[len(tl.Accuracy)/2:]
	for _, a := range half {
		warm += a
	}
	return cold, warm / float64(len(half))
}

// Render formats the training exhibit.
func (r *TrainingResult) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Benchmark,
			pct(row.ColdGshare), pct(row.WarmGshare), pct(row.WarmGshare - row.ColdGshare),
			pct(row.ColdIFGshare), pct(row.WarmIFGshare),
			pct(row.ColdBimodal), pct(row.WarmBimodal),
		}
	}
	return textplot.Table(
		fmt.Sprintf("Extension. Training time: first %d branches vs steady state", r.Bucket),
		[]string{"Benchmark", "gshare cold", "warm", "Δ", "IF cold", "IF warm", "bimodal cold", "warm"},
		rows)
}
