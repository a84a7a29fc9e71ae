package experiments

import (
	"context"
	"strings"
	"testing"

	"branchcorr/internal/core"
	"branchcorr/internal/runner"
	"branchcorr/internal/trace"
)

// buildReportWith builds a full golden-config report with the given
// oracle pipeline implementation and returns its JSON and rendered-text
// bytes.
func buildReportWith(t *testing.T, parallel int, oracle func(*trace.Trace, []int, core.OracleConfig) []*core.Selections) (string, string) {
	t.Helper()
	s, err := NewSuite(goldenConfig(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if oracle != nil {
		s.oracleGrid = oracle
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

// referenceGrid is the oracle grid's executable specification: one
// reference build per window.
func referenceGrid(tr *trace.Trace, windows []int, cfg core.OracleConfig) []*core.Selections {
	out := make([]*core.Selections, len(windows))
	for w, n := range windows {
		cfg.WindowLen = n
		out[w] = core.ReferenceBuildSelective(tr, cfg)
	}
	return out
}

// TestReportByteIdentityKernelVsReference is the end-to-end guarantee of
// the columnar oracle kernels: a full report built with the packed
// kernels must be byte-identical — JSON and rendered text — to one built
// with the pre-kernel reference implementation, at every parallelism
// level. This is the acceptance gate for swapping implementations under
// the public oracle API.
func TestReportByteIdentityKernelVsReference(t *testing.T) {
	refJSON, refText := buildReportWith(t, 1, referenceGrid)
	for _, parallel := range []int{1, 8} {
		kJSON, kText := buildReportWith(t, parallel, nil) // default: columnar kernels
		if kJSON != refJSON {
			t.Errorf("parallel=%d: kernel JSON report (%d bytes) differs from reference (%d bytes)",
				parallel, len(kJSON), len(refJSON))
		}
		if kText != refText {
			t.Errorf("parallel=%d: kernel rendered report differs from reference", parallel)
		}
	}
}

// TestPackedMemoizedPerTrace pins that the suite packs each trace exactly
// once even when many oracle windows and exhibits consume it: every
// consumer reads the one view the trace memoizes.
func TestPackedMemoizedPerTrace(t *testing.T) {
	s := testSuite(t)
	tr := s.traces[0]
	p1 := tr.Packed()
	if _, err := s.BuildReport(context.Background(), []string{"table2", "fig5"}, runner.Options{Parallel: 2}); err != nil {
		t.Fatal(err)
	}
	if p2 := tr.Packed(); p1 != p2 {
		t.Error("the suite's exhibits replaced the trace's packed view")
	}
	if p1.Len() != tr.Len() {
		t.Errorf("packed view length %d, trace length %d", p1.Len(), tr.Len())
	}
}
