// Command perfbench-layers is the traced run's layer replay: it calls
// the public entry point of each layer the report suite uses, on the
// same traces a benchmark pass builds, one call at a time, and prints
// the spans it timed as a JSON array on standard output.
//
// It is a program of its own so that a change to these entry points
// breaks only the traced run, never the end-to-end benchmark.
//
// Usage:
//
//	perfbench-layers -workload report -n 200000 -work DIR
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"branchcorr/internal/bp"
	"branchcorr/internal/core"
	"branchcorr/internal/corpus"
	"branchcorr/internal/entropy"
	"branchcorr/internal/obs"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
	"branchcorr/internal/workloads"
)

// span matches the benchmark's span record.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type recorder struct {
	base  time.Time
	spans []span
}

// start opens a span under parent and returns its index.
func (r *recorder) start(name string, parent int) int {
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: int64(time.Since(r.base))})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) { r.spans[i].End = int64(time.Since(r.base)) }

// timed runs f as one span under parent.
func (r *recorder) timed(name string, parent int, f func()) {
	i := r.start(name, parent)
	f()
	r.end(i)
}

func main() {
	var (
		workload = flag.String("workload", "", "report or predictors")
		n        = flag.Int("n", 0, "trace length")
		work     = flag.String("work", "", "scratch directory for the corpus round trip")
		shards   = flag.Int("sweep-shards", 0, "sweep config shards, as the workload's suite uses")
	)
	flag.Parse()
	if (*workload != "report" && *workload != "predictors") || *n <= 0 || *work == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench-layers -workload report|predictors -n N -work DIR")
		os.Exit(2)
	}
	oracle := *workload == "report"
	viaCorpus := *workload == "predictors"

	var store *corpus.Store
	if viaCorpus {
		dir := filepath.Join(*work, "layers-corpus")
		defer os.RemoveAll(dir)
		var err error
		if store, err = corpus.Open(dir, obs.New()); err != nil {
			fatal(err)
		}
	}
	reg := obs.New() // keeps the engines' counters out of obs.Default
	r := &recorder{base: time.Now()}
	root := r.start("replay", -1)
	for _, w := range workloads.All() {
		top := r.start("replay.trace", root)
		var tr *trace.Trace
		r.timed("workloads.generate", top, func() { tr = w.Generate(*n) })
		r.timed("trace.pack", top, func() { tr.Packed() })
		if viaCorpus {
			key := corpus.Key(w.Name(), *n, workloads.Revision)
			var err error
			r.timed("corpus.put", top, func() { err = store.PutPacked(key, tr.Packed()) })
			if err != nil {
				fatal(err)
			}
			r.timed("corpus.get", top, func() { tr, err = store.LoadTrace(key) })
			if err != nil {
				fatal(err)
			}
		}
		if oracle {
			o := r.start("core.oracle", top)
			cfg := core.OracleConfig{WindowLen: 16, Obs: reg}
			var prof *core.Selections
			r.timed("core.oracle.profile", o, func() {
				prof = core.Oracle(tr, core.OracleOptions{OracleConfig: cfg, Stage: core.StageProfile})
			})
			r.timed("core.oracle.select", o, func() {
				core.Oracle(tr, core.OracleOptions{OracleConfig: cfg, Stage: core.StageSelect, Candidates: prof.Candidates})
			})
			r.end(o)
		}
		stats := trace.Summarize(tr)
		r.timed("sim.simulate", top, func() {
			sim.Simulate(tr, []bp.Predictor{bp.NewIdealStatic(stats), bp.NewGshare(16), bp.NewPAs(12, 10, 6)}, sim.Options{Observer: reg})
		})
		r.timed("sim.sweep", top, func() {
			grid := bp.NewGshareSweep([]uint{8, 10, 12, 14, 16, 18, 20, 22})
			sim.SimulateSweep(tr, grid, sim.Options{Observer: reg, Parallel: *shards})
		})
		r.timed("core.classify", top, func() {
			core.ClassifyPerAddress(tr, core.ClassifyConfig{IFPAsHistoryBits: 16, Obs: reg})
		})
		r.timed("entropy.ceilings", top, func() {
			entropy.LocalCeilings(tr, 12)
			entropy.GlobalCeilings(tr, 12)
		})
		r.end(top)
	}
	r.end(root)
	if err := json.NewEncoder(os.Stdout).Encode(r.spans); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench-layers:", err)
	os.Exit(1)
}
