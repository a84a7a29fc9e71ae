// Package use calls the deprecated wrapper family; every use must be
// flagged by dep-api, whether a call, a bare function-value reference
// or a deprecated type. dep-api carries no fixes, so bplint -fix leaves
// the file unchanged.
package use

import (
	"testmod/internal/depfix/bp"
	"testmod/internal/depfix/sim"
)

// Demo exercises every deprecated entry point.
func Demo(t *sim.Trace, a, b bp.Predictor) int {
	preds := []bp.Predictor{a, b}
	results := sim.Run(t, a, b)            // want dep-api
	one := sim.RunOne(t, a)                // want dep-api
	ref := sim.RunReference(t, preds...)   // want dep-api
	lines := sim.RunTimeline(t, 100, a, b) // want dep-api
	conc := sim.RunConcurrent(t, preds...) // want dep-api
	p, _ := bp.ParseEnv("gshare(16)")      // want dep-api
	direct := sim.Simulate(t, preds, sim.Options{Parallel: -1})
	_ = p
	return len(results) + one.Total + len(ref) + len(lines) + len(conc) + len(direct.Results)
}

// Hold keeps a function-value reference (not auto-fixable) and a
// deprecated type (ditto).
func Hold() any {
	var cfg bp.Legacy // want dep-api
	_ = cfg
	return sim.Run // want dep-api
}
