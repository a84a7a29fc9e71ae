package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"branchcorr/internal/runner"
)

// goldenConfig is the small suite the byte-identity tests run: three
// workloads including both Figure 9 benchmarks, short traces, and a
// two-point Figure 5 sweep so every exhibit (including the expensive
// oracle paths) executes at test scale.
func goldenConfig() Config {
	return Config{
		Length:      20_000,
		Workloads:   []string{"gcc", "perl", "compress"},
		Fig5Windows: []int{8, 16},
	}
}

func buildJSON(t *testing.T, parallel int) (string, string) {
	t.Helper()
	s, err := NewSuite(goldenConfig(), t.Logf)
	if err != nil {
		t.Fatal(err)
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

// TestBuildReportByteIdentity is the determinism contract of the
// parallel runner: a full report computed at parallel=1 and at
// parallel=8, each on a freshly generated suite, must be byte-equal in
// both JSON and rendered-text form. CI runs this under -race, so any
// unsynchronized sharing between cells fails the build too.
func TestBuildReportByteIdentity(t *testing.T) {
	seqJSON, seqText := buildJSON(t, 1)
	parJSON, parText := buildJSON(t, 8)
	if seqJSON != parJSON {
		t.Errorf("JSON reports differ between parallel=1 (%d bytes) and parallel=8 (%d bytes)",
			len(seqJSON), len(parJSON))
	}
	if seqText != parText {
		t.Errorf("rendered reports differ between parallel=1 and parallel=8")
	}
	// Sanity: the report actually contains every exhibit.
	for _, key := range []string{`"table1"`, `"figure5"`, `"figure9"`, `"training"`, `"ceiling"`} {
		if !strings.Contains(seqJSON, key) {
			t.Errorf("full report missing %s", key)
		}
	}
}

// aloneConfig is a small suite holding both Figure 9 benchmarks, with
// the extra exhibit on (one kernel spec, one that needs profiling
// context), so every exhibit in the table has cells.
func aloneConfig() Config {
	return Config{
		Length:      20_000,
		Workloads:   []string{"gcc", "perl", "compress"},
		Fig5Windows: []int{8, 16},
		ExtraSpecs:  []string{"bimodal:12", "ideal-static"},
	}
}

// TestBuildReportExhibitAloneMatchesFull pins every row of the exhibit
// table: each exhibit built alone, on a fresh suite that memoizes
// nothing yet, must equal its slot in the full report, and the report
// must hold no other exhibit.
func TestBuildReportExhibitAloneMatchesFull(t *testing.T) {
	full, err := NewSuite(aloneConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fullReport, err := full.BuildReport(context.Background(), nil, runner.Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exhibits {
		t.Run(e.name, func(t *testing.T) {
			s, err := NewSuite(aloneConfig(), nil)
			if err != nil {
				t.Fatal(err)
			}
			alone, err := s.BuildReport(context.Background(), []string{e.name}, runner.Options{Parallel: 2})
			if err != nil {
				t.Fatal(err)
			}
			want, ok := e.result(fullReport)
			if !ok {
				t.Fatal("missing from the full report")
			}
			got, ok := e.result(alone)
			if !ok {
				t.Fatal("missing when built alone")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("built alone:\n%s\nin the full report:\n%s", got.Render(), want.Render())
			}
			for _, other := range exhibits {
				if _, ok := other.result(alone); ok && other.name != e.name {
					t.Errorf("building %s alone also built %s", e.name, other.name)
				}
			}
		})
	}
}

func TestBuildReportUnknownExhibit(t *testing.T) {
	s := testSuite(t)
	if _, err := s.BuildReport(context.Background(), []string{"fig4", "nope"}, runner.Options{}); err == nil {
		t.Error("unknown exhibit should fail")
	} else if !strings.Contains(err.Error(), "nope") {
		t.Errorf("err %v does not name the unknown exhibit", err)
	}
}

// TestBuildReportFig9ErrorAbortsPool checks error propagation from a
// failing cell: a suite without perl cannot compute fig9, and the cell
// error must surface with the cell identity.
func TestBuildReportFig9ErrorAbortsPool(t *testing.T) {
	s, err := NewSuite(Config{Length: 2_000, Workloads: []string{"gcc"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.BuildReport(context.Background(), []string{"table1", "fig9"}, runner.Options{Parallel: 2})
	if err == nil {
		t.Fatal("fig9 without perl should fail the report")
	}
	if !strings.Contains(err.Error(), "fig9/perl") || !strings.Contains(err.Error(), "not in suite") {
		t.Errorf("err = %v, want cell-identified fig9 error", err)
	}
}

func TestBuildReportCancelledContext(t *testing.T) {
	s := testSuite(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.BuildReport(ctx, []string{"table1"}, runner.Options{Parallel: 2}); err == nil {
		t.Error("cancelled context should fail the report")
	}
}

func TestExhibitOrderCoversReport(t *testing.T) {
	// Every canonical exhibit must be present once a full report is
	// built, and Render must print each one, in order.
	report := testReport(t)
	text := report.Render()
	at := 0
	for _, e := range exhibits {
		res, ok := e.result(report)
		if !ok {
			t.Errorf("exhibit %s missing from full report", e.name)
			continue
		}
		j := strings.Index(text[at:], res.Render())
		if j < 0 {
			t.Errorf("exhibit %s not rendered in order", e.name)
			continue
		}
		at += j + len(res.Render())
	}
}
