// Command experiments regenerates every table and figure of the paper
// over the synthetic workload suite and prints them to stdout.
//
// The report is decomposed into (exhibit × workload) cells executed
// across a worker pool (-parallel, default GOMAXPROCS); results merge in
// canonical exhibit order, so the output is byte-identical to -parallel=1.
//
// Usage:
//
//	experiments                         # everything, 1M branches each
//	experiments -n 200000 -exhibits fig4,table2
//	experiments -workloads gcc,go -n 2000000
//	experiments -parallel 1             # sequential execution
//	experiments -p gshare:14 -p tage    # extra exhibit with custom predictors
//	experiments -corpus traces/         # reuse generated traces across runs
//	experiments -metrics out.json       # write the metrics snapshot at exit
//	experiments -debug-addr :6060       # live expvar + pprof + /metrics
//	experiments -cpuprofile cpu.pb.gz   # profile the run (go tool pprof)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"branchcorr/internal/experiments"
	"branchcorr/internal/obs"
	"branchcorr/internal/runner"
)

// specList collects repeated -p flags.
type specList []string

func (s *specList) String() string { return fmt.Sprint(*s) }
func (s *specList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// options carries the parsed flags into run.
type options struct {
	n           int
	wls         string
	exhibits    string
	parallel    int
	sweepShards int
	quiet      bool
	asJSON     bool
	cpuprofile string
	memprofile string
	metrics    string
	debugAddr  string
	corpusDir  string
	specs      []string
}

func main() {
	var specs specList
	var o options
	flag.IntVar(&o.n, "n", 1_000_000, "dynamic branches per workload trace")
	flag.StringVar(&o.wls, "workloads", "", "comma-separated workload subset (default all)")
	flag.StringVar(&o.exhibits, "exhibits", "all", "comma-separated exhibits: "+strings.Join(experiments.ExhibitOrder(), ","))
	flag.IntVar(&o.parallel, "parallel", runtime.GOMAXPROCS(0), "worker goroutines for report cells (output is identical at any value)")
	flag.IntVar(&o.sweepShards, "sweep-shards", 0, "config shards per sweep-driven exhibit: >1 splits each grid across that many cores, <0 uses GOMAXPROCS (output is identical at any value)")
	flag.BoolVar(&o.quiet, "q", false, "suppress progress logging")
	flag.BoolVar(&o.asJSON, "json", false, "emit one JSON report instead of rendered text")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&o.memprofile, "memprofile", "", "write an allocation profile to this file at exit")
	flag.StringVar(&o.metrics, "metrics", "", "write the obs metrics snapshot (JSON) to this file at exit")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "serve expvar, pprof, and /metrics on this address (e.g. localhost:6060)")
	flag.StringVar(&o.corpusDir, "corpus", "", "content-addressed trace store directory: load traces from it when present, generate and store otherwise")
	flag.Var(&specs, "p", "extra predictor spec to evaluate across all workloads (repeatable; see bpsim -specs)")
	flag.Parse()
	o.specs = specs
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run is the whole program behind the flag parse; returning instead of
// exiting lets the profile and metrics writers run (and flush) on every
// path.
func run(o options) (err error) {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (all options are flags)", flag.Arg(0))
	}
	want, err := wantExhibits(o.exhibits)
	if err != nil {
		return err
	}

	if o.cpuprofile != "" {
		f, ferr := os.Create(o.cpuprofile)
		if ferr != nil {
			return ferr
		}
		if perr := pprof.StartCPUProfile(f); perr != nil {
			_ = f.Close()
			return perr
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	}
	if o.memprofile != "" {
		defer func() {
			if err != nil {
				return
			}
			err = writeMemProfile(o.memprofile)
		}()
	}

	// Metrics run process-wide through the default registry. The wall
	// clock feeds span histograms only in live command runs like this
	// one — library code never reads it (bplint det-time) — so counters
	// stay deterministic while durations reflect this run.
	reg := obs.Default()
	reg.SetClock(obs.SystemClock)
	if o.debugAddr != "" {
		ds, derr := obs.ServeDebug(o.debugAddr, reg)
		if derr != nil {
			return derr
		}
		fmt.Fprintf(os.Stderr, "experiments: debug server on http://%s/ (expvar, pprof, /metrics)\n", ds.Addr())
		defer func() {
			if cerr := ds.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	}
	if o.metrics != "" {
		defer func() {
			if werr := reg.WriteFile(o.metrics); werr != nil && err == nil {
				err = werr
			}
		}()
	}

	cfg := experiments.Config{Length: o.n, ExtraSpecs: o.specs, CorpusDir: o.corpusDir, SweepShards: o.sweepShards}
	if o.wls != "" {
		cfg.Workloads = strings.Split(o.wls, ",")
	}
	// Progress goes to stderr without timestamps: the report itself must be
	// byte-identical across runs, and wall-clock reads are banned
	// module-wide by bplint's det-time rule.
	logf := func(format string, args ...any) {
		if !o.quiet {
			fmt.Fprintf(os.Stderr, "experiments: %s\n", fmt.Sprintf(format, args...))
		}
	}
	suite, err := experiments.NewSuite(cfg, logf)
	if err != nil {
		return err
	}
	cfg = suite.Config() // pick up the suite's defaults (fig9 benchmarks etc.)

	// fig9 needs gcc and perl unless overridden alongside -workloads.
	if want["fig9"] && o.wls != "" && !suite.Fig9Available() {
		fmt.Fprintf(os.Stderr, "experiments: skipping fig9 (needs %s in -workloads)\n",
			strings.Join(cfg.Fig9Benchmarks, " and "))
		delete(want, "fig9")
	}
	var names []string
	for _, e := range experiments.ExhibitOrder() {
		if want[e] {
			names = append(names, e)
		}
	}

	report, err := suite.BuildReport(context.Background(), names, runner.Options{Parallel: o.parallel})
	if err != nil {
		return err
	}
	if o.asJSON {
		return report.WriteJSON(os.Stdout)
	}
	for _, e := range names {
		if out, ok := report.RenderExhibit(e); ok {
			logf("%s done", e)
			fmt.Println(out)
		}
	}
	return nil
}

// writeMemProfile snapshots the allocation profile after a final GC, so
// the profile reflects live heap plus cumulative allocation sites.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// wantExhibits parses the -exhibits flag into a set of canonical names
// through experiments.NormalizeExhibits; "all" (or empty) selects every
// exhibit, unknown names error.
func wantExhibits(spec string) (map[string]bool, error) {
	var names []string
	if spec != "all" && spec != "" {
		names = strings.Split(spec, ",")
	}
	names, err := experiments.NormalizeExhibits(names)
	if err != nil {
		return nil, err
	}
	want := make(map[string]bool, len(names))
	for _, e := range names {
		want[e] = true
	}
	return want, nil
}
