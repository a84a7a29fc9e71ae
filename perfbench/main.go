// Command perfbench is the repository's benchmark: one command that runs
// a named workload for a fixed time, checks every output it produced,
// and prints each metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 12.3, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with -trace 1 a separate traced run reports the
// per-layer ones. Run it through run.sh, which builds this package and
// bpsimd from source first:
//
//	bash perfbench/run.sh --workload report --seed 1 --seconds 30 --trace 0
//
// README.md in this directory explains the workloads, the metrics and
// which layer metric each end-to-end metric should follow.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them with tracing off. None can read 0 on a healthy
// run, so each is printed for every workload with a workload-specific
// meaning documented in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// exhibits are the report's exhibits in canonical order; each has a
// per-layer cell-time metric.
var exhibits = []string{"table1", "fig4", "fig5", "table2", "fig6", "table3", "fig7", "fig8", "fig9",
	"inpath", "ceiling", "hybrids", "training", "sweeps", "extra"}

// serviceEndpoints are the client-side per-endpoint latency metrics'
// endpoints ("traces" is the upload endpoint).
var serviceEndpoints = []string{"simulate", "sweep", "oracle", "classify", "traces"}

// errorCodes are the service's generic wire error codes.
var errorCodes = []string{"bad-request", "not-found", "too-large", "canceled", "internal"}

// perLayer are the traced run's metrics, named by module, for every
// workload. A layer a workload bypasses reports 0 there.
func perLayer() []metricDef {
	defs := []metricDef{
		{"workloads.generate_s", "s"},
		{"corpus.get_s", "s"},
		{"corpus.put_s", "s"},
		{"corpus.hits", "count"},
		{"corpus.misses", "count"},
		{"trace.pack_s", "s"},
		{"trace.pack.builds", "count"},
		{"sim.simulate_s", "s"},
		{"sim.fastpath_frac", "frac"},
		{"sim.runs.fastpath", "count"},
		{"sim.runs.reference", "count"},
		{"sim.sweep_s", "s"},
		{"sim.sweep.fused_frac", "frac"},
		{"sim.sweep.runs.fused", "count"},
		{"core.oracle.profile_s", "s"},
		{"core.oracle.select_s", "s"},
		{"core.oracle.builds", "count"},
		{"core.oracle.candidates", "count"},
		{"core.oracle.prune.events", "count"},
		{"core.classify_s", "s"},
		{"entropy.ceilings_s", "s"},
	}
	for _, e := range exhibits {
		defs = append(defs, metricDef{"experiments.cell." + e + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"experiments.memo.hit_frac", "frac"},
		metricDef{"runner.busy_frac", "frac"},
		metricDef{"runner.critical_cell_s", "s"},
		metricDef{"trace.overhead_s", "s"},
		metricDef{"service.cache.hit_frac", "frac"},
		metricDef{"service.queue.max", "count"},
	)
	for _, c := range errorCodes {
		defs = append(defs, metricDef{"service.errors." + c, "count"})
	}
	for _, e := range serviceEndpoints {
		defs = append(defs, metricDef{"service." + e + ".p50_ms", "ms"}, metricDef{"service." + e + ".p99_ms", "ms"})
	}
	return append(defs,
		metricDef{"v1.decode_s", "s"},
		metricDef{"v1.marshal_s", "s"},
	)
}

// env is what every workload runner gets: its inputs and the places it
// may build, run and write.
type env struct {
	seed    int64
	seconds float64
	traced  bool
	root    string // repository checkout
	bin     string // directory holding bpsimd and perfbench-layers
	work    string // scratch directory, removed at exit
	stamp   map[string]any
}

// outcome is one run's result.
type outcome struct {
	attempted, failed int
	// problems lists every failed check in words; any entry makes the
	// run incorrect.
	problems []string
	metrics  map[string]float64
	// notes are extra human-readable lines printed before the result.
	notes []string
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloadRunners = map[string]func(*env) (*outcome, error){
	"report":     func(e *env) (*outcome, error) { return runBatch(e, reportSpec) },
	"predictors": func(e *env) (*outcome, error) { return runBatch(e, predictorsSpec) },
	"serve":      runServe,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: report, predictors or serve")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", 30, "how long the run measures")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
		root     = flag.String("root", ".", "repository checkout the benchmark runs in")
		bin      = flag.String("bin", ".bench_build", "directory holding the built bpsimd and perfbench-layers")
		rev      = flag.String("rev", "", "source revision to stamp on the run")
	)
	flag.Parse()
	run, ok := workloadRunners[*workload]
	if !ok || flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload report|predictors|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	work, err := os.MkdirTemp(*bin, "work-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(work)
	e := &env{seed: *seed, seconds: *seconds, traced: *trace == 1, root: *root, bin: *bin, work: work}
	e.stamp = stamp(*root, *rev, *workload, *seed)

	out, err := run(e)
	if err != nil {
		_ = os.RemoveAll(work)
		fatal(err)
	}
	defs := endToEnd
	if e.traced {
		defs = perLayer()
	}
	emit(e, defs, out)
}

// emit prints the stamp, every metric with its unit, the checks, and
// finally the one-line JSON result.
func emit(e *env, defs []metricDef, out *outcome) {
	st, _ := json.Marshal(e.stamp)
	fmt.Printf("stamp %s\n", st)
	for _, n := range out.notes {
		fmt.Println(n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v := out.metrics[d.Name]
		metrics[d.Name] = value{v, d.Unit}
		fmt.Printf("%-34s %14.6g %s\n", d.Name, v, d.Unit)
	}
	frac := 0.0
	if out.attempted > 0 {
		frac = float64(out.failed) / float64(out.attempted)
	}
	fmt.Printf("%-34s %14.6g frac (%d of %d)\n", "fail_frac", frac, out.failed, out.attempted)
	if out.attempted == 0 {
		out.fail("no operation was attempted")
	}
	extra := unknownMetrics(out.metrics)
	if len(extra) > 0 {
		out.fail("metrics computed but not declared: %s", strings.Join(extra, ", "))
	}
	for _, p := range out.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(out.problems) == 0, max(out.attempted, 1), out.failed, metrics}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// unknownMetrics lists computed metrics that no definition declares — a
// misspelt name would otherwise be silently dropped.
func unknownMetrics(m map[string]float64) []string {
	known := map[string]bool{}
	for _, d := range perLayer() {
		known[d.Name] = true
	}
	for _, d := range endToEnd {
		known[d.Name] = true
	}
	var out []string
	for name := range m {
		if !known[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
