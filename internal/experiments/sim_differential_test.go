package experiments

import (
	"context"
	"strings"
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/runner"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
)

// scalarOnly hides a predictor's SimulateBlock so sim falls back to the
// per-record reference loop while behavior stays scalar-identical.
type scalarOnly struct{ bp.Predictor }

// referenceRun is sim.Simulate pinned to the per-record reference loop.
func referenceRun(tr *trace.Trace, predictors ...bp.Predictor) []*sim.Result {
	return sim.Simulate(tr, predictors, sim.Options{ForceReference: true}).Results
}

// referenceTimeline is a bucketed sim.Simulate with every kernel
// stripped, forcing the reference loop.
func referenceTimeline(tr *trace.Trace, bucket int, predictors ...bp.Predictor) []*sim.Timeline {
	stripped := make([]bp.Predictor, len(predictors))
	for i, p := range predictors {
		stripped[i] = scalarOnly{p}
	}
	return sim.Simulate(tr, stripped, sim.Options{BucketSize: bucket}).Timelines
}

// referenceSweep is sim.SimulateSweep pinned to the scalar reference
// loop, bypassing both the fused grid walk and per-config kernels.
func referenceSweep(tr *trace.Trace, grid bp.SweepGrid) *sim.SweepOutcome {
	return sim.SimulateSweep(tr, grid, sim.Options{ForceReference: true})
}

// buildReportWithSim builds a full golden-config report with the given
// simulation engine implementations and returns its JSON and rendered
// text.
func buildReportWithSim(t *testing.T, parallel int,
	run func(*trace.Trace, ...bp.Predictor) []*sim.Result,
	timeline func(*trace.Trace, int, ...bp.Predictor) []*sim.Timeline,
	sweep func(*trace.Trace, bp.SweepGrid) *sim.SweepOutcome) (string, string) {
	t.Helper()
	s, err := NewSuite(goldenConfig(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if run != nil {
		s.simRun = run
	}
	if timeline != nil {
		s.simTimeline = timeline
	}
	if sweep != nil {
		s.simSweep = sweep
	}
	report, err := s.BuildReport(context.Background(), nil, runner.Options{Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), report.Render()
}

// TestReportByteIdentitySimKernelVsReference is the end-to-end guarantee
// of the columnar simulation engine: a full report built with the
// batched kernels must be byte-identical — JSON and rendered text — to
// one built with the per-record reference loop, at every parallelism
// level. This is the acceptance gate for the sim fast path riding under
// the public Simulate API.
func TestReportByteIdentitySimKernelVsReference(t *testing.T) {
	refJSON, refText := buildReportWithSim(t, 1, referenceRun, referenceTimeline, referenceSweep)
	for _, parallel := range []int{1, 8} {
		kJSON, kText := buildReportWithSim(t, parallel, nil, nil, nil) // default: kernel + fused-sweep fast paths
		if kJSON != refJSON {
			t.Errorf("parallel=%d: kernel JSON report (%d bytes) differs from reference (%d bytes)",
				parallel, len(kJSON), len(refJSON))
		}
		if kText != refText {
			t.Errorf("parallel=%d: kernel rendered report differs from reference", parallel)
		}
	}
}
