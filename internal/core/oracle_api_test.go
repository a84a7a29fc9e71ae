package core

import (
	"testing"

	"branchcorr/internal/trace"
)

// Oracle is the oracle's one entry point; every stage is differentially
// pinned here against the reference implementation (oracle_reference.go),
// the executable specification of the columnar kernels.

func TestOracleMatchesBuildSelective(t *testing.T) {
	for _, tr := range differentialTraces() {
		cfg := OracleConfig{WindowLen: 16}
		want := ReferenceBuildSelective(tr, cfg)
		mustEqualSelections(t, Oracle(tr, OracleOptions{OracleConfig: cfg}), want)
		// A trace wrapping a loaded view (the corpus hit path) is the same input.
		mustEqualSelections(t, Oracle(trace.FromPacked(tr.Packed()), OracleOptions{OracleConfig: cfg}), want)
	}
}

func TestOracleStageProfileMatchesProfileCandidates(t *testing.T) {
	for _, tr := range differentialTraces() {
		cfg := OracleConfig{WindowLen: 16, TopK: 8}
		want := ReferenceProfileCandidates(tr, cfg)
		got := Oracle(tr, OracleOptions{OracleConfig: cfg, Stage: StageProfile})
		if len(got.BySize[1]) != 0 {
			t.Errorf("%s: StageProfile filled BySize", tr.Name())
		}
		mustEqualCandidates(t, got.Candidates, want)
	}
}

func TestOracleStageSelectMatchesSelectRefs(t *testing.T) {
	for _, tr := range differentialTraces() {
		cfg := OracleConfig{WindowLen: 16}
		cands := Oracle(tr, OracleOptions{OracleConfig: cfg, Stage: StageProfile}).Candidates
		want := ReferenceSelectRefs(tr, cands, cfg)
		got := Oracle(tr, OracleOptions{OracleConfig: cfg, Stage: StageSelect, Candidates: cands})
		mustEqualSelections(t, got, want)
	}
}

// TestOracleStagedPipelineMatchesFull pins that profile + select staged
// through options compose to exactly the one-call pipeline.
func TestOracleStagedPipelineMatchesFull(t *testing.T) {
	tr := randomTrace(11, 700, 20)
	cfg := OracleConfig{WindowLen: 16}
	want := Oracle(tr, OracleOptions{OracleConfig: cfg})
	prof := Oracle(tr, OracleOptions{OracleConfig: cfg, Stage: StageProfile})
	got := Oracle(tr, OracleOptions{OracleConfig: cfg, Stage: StageSelect, Candidates: prof.Candidates})
	mustEqualSelections(t, got, want)
}

func TestOracleStageString(t *testing.T) {
	cases := map[OracleStage]string{
		StageFull:      "full",
		StageProfile:   "profile",
		StageSelect:    "select",
		OracleStage(7): "OracleStage(7)",
	}
	for stage, want := range cases {
		if got := stage.String(); got != want {
			t.Errorf("OracleStage(%d).String() = %q, want %q", int(stage), got, want)
		}
	}
}

func TestOracleUnknownStagePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Oracle with an undefined stage should panic")
		}
	}()
	Oracle(trace.New("x", 0), OracleOptions{Stage: OracleStage(42)})
}
