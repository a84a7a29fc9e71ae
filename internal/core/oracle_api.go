package core

import (
	"fmt"

	"branchcorr/internal/obs"
	"branchcorr/internal/trace"
)

// This file is the oracle's public API, mirroring sim.Simulate: one
// options-based call, Oracle, over an in-memory trace. Streaming is
// offered for simulation only (sim.SimulateBlocks); the oracle always
// runs over the packed columns.

// OracleStage selects how much of the oracle pipeline runs.
type OracleStage int

const (
	// StageFull runs profile + select and returns ready-to-run
	// selective-history assignments (the default).
	StageFull OracleStage = iota
	// StageProfile runs pass 1 only and returns the ranked candidates in
	// Selections.Candidates, for callers that inspect or edit the beam
	// before selection.
	StageProfile
	// StageSelect runs passes 2+3 from OracleOptions.Candidates, for
	// callers re-scoring a beam produced by an earlier StageProfile run.
	StageSelect
)

// String names the stage for diagnostics.
func (s OracleStage) String() string {
	switch s {
	case StageFull:
		return "full"
	case StageProfile:
		return "profile"
	case StageSelect:
		return "select"
	}
	return fmt.Sprintf("OracleStage(%d)", int(s))
}

// OracleOptions configures one Oracle run. The zero value runs the full
// pipeline with OracleConfig defaults.
type OracleOptions struct {
	// OracleConfig carries the algorithmic knobs (WindowLen, TopK,
	// MaxCandidates, Schemes, ScoreParallel, Obs), embedded so callers
	// set them directly on the options literal.
	OracleConfig

	// Stage selects the pipeline slice to run; zero is StageFull.
	Stage OracleStage

	// Candidates is StageSelect's input beam: the per-branch ranked
	// candidates a prior StageProfile run produced with the same config
	// over the same records. Ignored by the other stages.
	Candidates map[trace.Addr]*Candidates
}

// Oracle runs the correlation oracle over the trace's packed columns in
// the stage-selected configuration and returns the Selections. StageFull
// and StageSelect fill Selections.BySize; StageProfile fills
// Selections.Candidates. The work runs on the columnar kernels; results
// are bit-identical at every ScoreParallel.
func Oracle(t *trace.Trace, opts OracleOptions) *Selections {
	pt := t.Packed()
	switch opts.Stage {
	case StageProfile:
		return &Selections{Candidates: profilePacked(pt, opts.OracleConfig)}
	case StageSelect:
		return selectPacked(pt, opts.Candidates, opts.OracleConfig)
	case StageFull:
		reg := obs.Or(opts.Obs)
		reg.Counter("core.oracle.builds").Inc()
		defer reg.StartSpan("core.oracle.build").End()
		return selectPacked(pt, profilePacked(pt, opts.OracleConfig), opts.OracleConfig)
	}
	panic(fmt.Sprintf("core: unknown oracle stage %d", int(opts.Stage)))
}
