package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"branchcorr/internal/obs"
	"branchcorr/internal/runner"
)

// updateGolden rewrites the committed metrics golden instead of diffing
// against it: go test ./internal/experiments/ -run MetricsCountersGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// metricsConfig is the fixed workload the metrics tests run: small
// enough for CI, but covering the fast path (fig4's selective
// predictors, gshare and IF-gshare, and the kernel-backed extra specs),
// the reference path (the extra "block" spec, which has no batched
// kernel), the oracle passes, the shared per-branch bundle, and the
// user-spec extra exhibit.
func metricsConfig(reg *obs.Registry) Config {
	return Config{
		Length:      20_000,
		Workloads:   []string{"gcc", "perl"},
		Fig5Windows: []int{8},
		ExtraSpecs:  []string{"gshare:12", "bimodal:10", "block"},
		Obs:         reg,
	}
}

// metricsExhibits is the exhibit subset the metrics tests build.
var metricsExhibits = []string{"table1", "fig4", "extra"}

// countersJSON builds the fixed report at the given parallelism into a
// fresh registry and returns the deterministic snapshot (counters and
// gauges, histograms stripped) as indented JSON.
func countersJSON(t *testing.T, parallel int) []byte {
	t.Helper()
	reg := obs.New()
	s, err := NewSuite(metricsConfig(reg), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.BuildReport(context.Background(), metricsExhibits, runner.Options{Parallel: parallel}); err != nil {
		t.Fatal(err)
	}
	out, err := reg.Snapshot().WithoutHistograms().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestMetricsCountersParallelismInvariant is the observability half of
// the determinism contract: the counter/gauge snapshot depends only on
// the workload and the requested exhibits, never on scheduling, so
// parallel=1 and parallel=8 must produce byte-equal snapshots. (Only
// clock-fed span histograms may differ between runs; the comparison
// strips them.)
func TestMetricsCountersParallelismInvariant(t *testing.T) {
	seq := countersJSON(t, 1)
	par := countersJSON(t, 8)
	if !bytes.Equal(seq, par) {
		t.Errorf("counter snapshots differ between parallel=1 and parallel=8:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
}

// TestMetricsCountersGolden pins the counter snapshot of the fixed
// report against the committed golden, so a change to instrumentation
// coverage (a dropped counter, a renamed metric, an extra memoized
// rebuild) shows up as a reviewable testdata diff. CI's perf-smoke job
// diffs the same golden against a live cmd/experiments -metrics run.
func TestMetricsCountersGolden(t *testing.T) {
	got := countersJSON(t, 4)
	path := filepath.Join("testdata", "metrics_counters.golden.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("counter snapshot drifted from %s (regenerate with -update-golden if intended):\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}
