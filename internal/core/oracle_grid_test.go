package core

import (
	"fmt"
	"testing"

	"branchcorr/internal/obs"
	"branchcorr/internal/trace"
	"branchcorr/internal/workloads"
)

// Grid tests: OracleGrid over a window list must equal one Oracle call
// per window and the reference build at each window — candidates,
// selections and the candidate counters — with or without the prune
// fallback.

// gridWindowSets covers a single window, lists without the default 16,
// and Figure 5's seven windows.
var gridWindowSets = [][]int{
	{8},
	{32},
	{4, 32},
	{8, 12, 24},
	{8, 12, 16, 20, 24, 28, 32},
}

// oracleCounters is the deterministic slice of a registry the oracle
// writes: candidate occupancy, prune events, candidate peak and builds.
type oracleCounters struct {
	candidates, prunes, peak, builds int64
}

func countersOf(reg *obs.Registry) oracleCounters {
	return oracleCounters{
		candidates: reg.Counter("core.oracle.candidates").Value(),
		prunes:     reg.Counter("core.oracle.prune.events").Value(),
		peak:       reg.Gauge("core.oracle.candidates.peak").Value(),
		builds:     reg.Counter("core.oracle.builds").Value(),
	}
}

// checkGrid runs the grid at windows over tr and compares it, window by
// window, with single-window Oracle calls and the reference. It returns
// the grid's and the single builds' counters (builds excluded from the
// comparison the caller makes).
func checkGrid(t *testing.T, tr *trace.Trace, windows []int, cfg OracleConfig) (grid, singles oracleCounters) {
	t.Helper()
	gridReg, singleReg := obs.New(), obs.New()

	gcfg := cfg
	gcfg.Obs = gridReg
	full := OracleGrid(tr, windows, OracleOptions{OracleConfig: gcfg})
	pcfg := cfg
	pcfg.Obs = obs.New()
	prof := OracleGrid(tr, windows, OracleOptions{OracleConfig: pcfg, Stage: StageProfile})
	if len(full) != len(windows) || len(prof) != len(windows) {
		t.Fatalf("windows %v: grid returned %d full / %d profile entries", windows, len(full), len(prof))
	}
	for w, n := range windows {
		scfg := cfg
		scfg.WindowLen = n
		refC := ReferenceProfileCandidates(tr, scfg)
		mustEqualCandidates(t, prof[w].Candidates, refC)
		mustEqualSelections(t, full[w], ReferenceBuildSelective(tr, scfg))

		scfg.Obs = singleReg
		mustEqualSelections(t, full[w], Oracle(tr, OracleOptions{OracleConfig: scfg}))
	}
	return countersOf(gridReg), countersOf(singleReg)
}

func TestOracleGridMatchesSingleWindows(t *testing.T) {
	traces := append(differentialTraces(), mustWorkload(t, "gcc", 8_000), mustWorkload(t, "perl", 8_000))
	for _, tr := range traces {
		for _, windows := range gridWindowSets {
			t.Run(fmt.Sprintf("%s/%v", tr.Name(), windows), func(t *testing.T) {
				grid, singles := checkGrid(t, tr, windows, OracleConfig{})
				if grid.builds != 1 || singles.builds != int64(len(windows)) {
					t.Errorf("builds: grid %d, singles %d; want 1 and %d", grid.builds, singles.builds, len(windows))
				}
				grid.builds, singles.builds = 0, 0
				if grid != singles {
					t.Errorf("grid counters %+v, want the single builds' %+v", grid, singles)
				}
			})
		}
	}
}

// TestOracleGridPruneFallback drives the widest window's tables past the
// watermark (tiny MaxCandidates), so the grid must fall back to one
// profile per window: results stay identical to the per-window builds
// and the reference, and the prune counter equals their sum.
func TestOracleGridPruneFallback(t *testing.T) {
	for _, maxCands := range []int{4, 8, 24} {
		tr := randomTrace(uint32(maxCands), 800, 30)
		for _, windows := range [][]int{{8, 32}, {8, 12, 16, 20, 24, 28, 32}} {
			t.Run(fmt.Sprintf("max=%d/%v", maxCands, windows), func(t *testing.T) {
				grid, singles := checkGrid(t, tr, windows, OracleConfig{MaxCandidates: maxCands})
				if singles.prunes == 0 {
					t.Fatal("no per-window build pruned: the fallback is not exercised")
				}
				grid.builds, singles.builds = 0, 0
				if grid != singles {
					t.Errorf("grid counters %+v, want the single builds' %+v", grid, singles)
				}
			})
		}
	}
}

// TestOracleGridSchemes checks the bucketed profile under each scheme
// filter.
func TestOracleGridSchemes(t *testing.T) {
	tr := randomTrace(7, 500, 10)
	for _, schemes := range [][]Scheme{{Occurrence}, {BackwardCount}} {
		checkGrid(t, tr, []int{8, 16, 32}, OracleConfig{Schemes: schemes})
	}
}

// TestOracleGridStageSelect scores one beam at every window of a grid:
// entry w must equal a single-window StageSelect at window w.
func TestOracleGridStageSelect(t *testing.T) {
	tr := randomTrace(5, 600, 12)
	cands := Oracle(tr, OracleOptions{OracleConfig: OracleConfig{WindowLen: 16}, Stage: StageProfile}).Candidates
	windows := []int{4, 16, 40}
	got := OracleGrid(tr, windows, OracleOptions{Stage: StageSelect, Candidates: cands})
	for w, n := range windows {
		cfg := OracleConfig{WindowLen: n}
		mustEqualSelections(t, got[w], Oracle(tr, OracleOptions{OracleConfig: cfg, Stage: StageSelect, Candidates: cands}))
		mustEqualSelections(t, got[w], ReferenceSelectRefs(tr, cands, cfg))
	}
}

func TestOracleGridRejectsBadWindows(t *testing.T) {
	tr := randomTrace(1, 100, 4)
	for _, windows := range [][]int{nil, {}, {16, 8}, {8, 8}, {0, 8}, {-4}, {8, 16, 12}} {
		t.Run(fmt.Sprint(windows), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("windows %v: want a panic", windows)
				}
			}()
			OracleGrid(tr, windows, OracleOptions{})
		})
	}
}

func mustWorkload(t *testing.T, name string, n int) *trace.Trace {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w.Generate(n)
}
