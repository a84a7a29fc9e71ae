package core

import (
	"fmt"

	"branchcorr/internal/obs"
	"branchcorr/internal/trace"
)

// This file is the oracle's public API, mirroring sim.Simulate: one
// options-based call over an in-memory trace, for one window (Oracle)
// or an ascending list of windows sharing each trace pass (OracleGrid).
// Streaming is offered for simulation only (sim.SimulateBlocks); the
// oracle always runs over the packed columns.

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
// Selections.Candidates. It is OracleGrid over the one window
// opts.WindowLen; results are bit-identical at every ScoreParallel.
func Oracle(t *trace.Trace, opts OracleOptions) *Selections {
	return OracleGrid(t, []int{opts.withDefaults().WindowLen}, opts)[0]
}

// OracleGrid runs the oracle once for every window length in windows —
// strictly ascending and positive; opts.WindowLen is ignored — and
// returns one Selections per window, entry w identical to an Oracle
// call at window windows[w]. Each stage streams the trace once for the
// whole list: the profile pass at the widest window, counting each
// candidate per window-distance bucket, and the select pass over the
// union of the windows' beams. StageSelect scores opts.Candidates at
// every window. A StageFull grid counts as one core.oracle.builds.
func OracleGrid(t *trace.Trace, windows []int, opts OracleOptions) []*Selections {
	checkWindows(windows)
	cfg := opts.withDefaults()
	reg := obs.Or(cfg.Obs)
	pt := t.Packed()
	profile := func() []map[trace.Addr]*Candidates {
		defer reg.StartSpan("core.oracle.profile").End()
		return profileGrid(pt, windows, cfg)
	}
	selectAt := func(cands []map[trace.Addr]*Candidates) []*Selections {
		defer reg.StartSpan("core.oracle.select").End()
		return selectGrid(pt, windows, cands, cfg)
	}
	switch opts.Stage {
	case StageProfile:
		cands := profile()
		out := make([]*Selections, len(windows))
		for w := range out {
			out[w] = &Selections{Candidates: cands[w]}
		}
		return out
	case StageSelect:
		cands := make([]map[trace.Addr]*Candidates, len(windows))
		for w := range cands {
			cands[w] = opts.Candidates
		}
		return selectAt(cands)
	case StageFull:
		reg.Counter("core.oracle.builds").Inc()
		defer reg.StartSpan("core.oracle.build").End()
		return selectAt(profile())
	}
	panic(fmt.Sprintf("core: unknown oracle stage %d", int(opts.Stage)))
}
