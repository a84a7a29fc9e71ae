package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"branchcorr/internal/experiments"
	"branchcorr/internal/obs"
	"branchcorr/internal/runner"
)

// batchSpec is one report-style workload: a paper report built through
// experiments.NewSuite / BuildReport / Render, the surface cmd/experiments
// uses.
type batchSpec struct {
	name string
	// n is the base trace length; the seed adds lengthOffset(seed).
	n int
	// exhibits to build; nil builds all of them.
	exhibits []string
	// corpus makes set-up fill a BPK1 corpus that each pass loads from;
	// without it set-up generates the traces in memory.
	corpus      bool
	sweepShards int
	extraSpecs  []string
	// setups is how many times a run sets up at least, so setup_s is a
	// median of several: many for a set-up of tens of milliseconds,
	// fewer for one of about a second.
	setups int
}

// batchParallel is the report cell worker count: the two cores the
// benchmark machine has.
const batchParallel = 2

// passSeconds is about how long one pass of either batch workload takes
// on the benchmark machine in a slow host state (7–8 s in a fast one).
// A run makes --seconds/passSeconds passes (at
// least one): a count fixed by the run length, not by how fast the
// machine happens to be, so every run's medians have the same samples.
const passSeconds = 12

// reportSpec is the full paper report at n≈200k: most of its CPU goes
// to the oracle passes and the selective-history sweeps.
var reportSpec = batchSpec{name: "report", n: 200_000, setups: 31}

// predictorsSpec is every exhibit that needs no oracle, at n≈2M from a
// corpus: decode, kernels, fused and sharded sweeps, IF predictors,
// classification and entropy ceilings.
var predictorsSpec = batchSpec{
	name:        "predictors",
	n:           2_000_000,
	exhibits:    []string{"table1", "fig6", "table3", "fig7", "fig9", "ceiling", "hybrids", "training", "sweeps", "extra"},
	corpus:      true,
	sweepShards: 2,
	// Kernel families (bimodal, gshare, GAs, PAs) beside reference-path
	// ones (hybrid, tage).
	extraSpecs: []string{"bimodal:12", "gshare:14", "gas:10,6", "pas:10,10,6", "hybrid:(gshare:14),(pas:12,10,6),12", "tage"},
	setups:     5,
}

func (b batchSpec) config(n int, corpusDir string, reg *obs.Registry) experiments.Config {
	return experiments.Config{
		Length:      n,
		CorpusDir:   corpusDir,
		SweepShards: b.sweepShards,
		ExtraSpecs:  b.extraSpecs,
		Obs:         reg,
	}
}

// passResult is one set-up plus one timed pass.
type passResult struct {
	setup, wall, cpu time.Duration
	// spans[0] is the pass; the rest are its report cells (traced
	// passes only).
	spans    []span
	counters map[string]int64
	// hists holds span durations (traced passes only): the suite
	// registry's plus the trace.pack span, which the program records in
	// obs.Default.
	hists  map[string]obs.HistogramSnapshot
	digest string
}

// cellRecorder is a runner.Observer recording one span per report cell
// under the pass span at index 0.
type cellRecorder struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func (r *cellRecorder) observe(c runner.Cell) func(error) {
	start := time.Since(r.base)
	return func(error) {
		end := time.Since(r.base)
		r.mu.Lock()
		r.spans = append(r.spans, span{Name: c.Exhibit, Parent: 0, Start: int64(start), End: int64(end)})
		r.mu.Unlock()
	}
}

// runPass sets up once and runs one pass. traced installs the system
// clock on the registries so the program's own spans carry durations.
func runPass(e *env, b batchSpec, n, k int, traced bool) (passResult, error) {
	var pr passResult
	reg := obs.New()
	if traced {
		reg.SetClock(obs.SystemClock)
		obs.Default().SetClock(obs.SystemClock)
		defer obs.Default().SetClock(nil)
	}
	dir := ""
	if b.corpus {
		dir = filepath.Join(e.work, fmt.Sprintf("corpus-%d", k))
		defer os.RemoveAll(dir)
	}

	// Set-up generates the traces: into the suite the pass uses, or
	// into the corpus the pass loads from.
	setupReg := reg
	if b.corpus {
		setupReg = obs.New()
	}
	t0 := time.Now()
	suite, err := experiments.NewSuite(b.config(n, dir, setupReg), nil)
	if err != nil {
		return pr, err
	}
	pr.setup = time.Since(t0)
	if b.corpus {
		suite = nil
	}
	runtime.GC()
	debug.FreeOSMemory()

	def0 := obs.Default().Snapshot()
	rec := &cellRecorder{spans: []span{{Name: "experiments.pass", Parent: -1}}}
	c0 := cpuTime()
	rec.base = time.Now()
	if suite == nil {
		if suite, err = experiments.NewSuite(b.config(n, dir, reg), nil); err != nil {
			return pr, err
		}
	}
	opts := runner.Options{Parallel: batchParallel}
	if traced {
		opts.Observer = rec.observe
	}
	rep, err := suite.BuildReport(context.Background(), b.exhibits, opts)
	if err != nil {
		return pr, err
	}
	text := rep.Render()
	pr.wall = time.Since(rec.base)
	pr.cpu = cpuTime() - c0
	rec.spans[0].End = int64(pr.wall)
	pr.spans = rec.spans

	sum := sha256.Sum256([]byte(text))
	pr.digest = hex.EncodeToString(sum[:])
	snap := reg.Snapshot()
	pr.counters = snap.Counters
	def1 := obs.Default().Snapshot()
	for name, v := range def1.Counters {
		if d := v - def0.Counters[name]; d != 0 {
			pr.counters[name] += d
		}
	}
	if traced {
		pr.hists = snap.Histograms
		if pr.hists == nil {
			pr.hists = map[string]obs.HistogramSnapshot{}
		}
		for name, h := range def1.Histograms {
			h0 := def0.Histograms[name]
			pr.hists[name] = obs.HistogramSnapshot{Count: h.Count - h0.Count, Sum: h.Sum - h0.Sum}
		}
	}
	suite, rep = nil, nil
	runtime.GC()
	debug.FreeOSMemory()
	return pr, nil
}

// extraSetup times one more set-up whose result is thrown away, for
// runs whose passes were too few to give the spec's set-up samples.
func extraSetup(e *env, b batchSpec, n, k int) (time.Duration, error) {
	dir := ""
	if b.corpus {
		dir = filepath.Join(e.work, fmt.Sprintf("corpus-x%d", k))
		defer os.RemoveAll(dir)
	}
	t0 := time.Now()
	_, err := experiments.NewSuite(b.config(n, dir, obs.New()), nil)
	d := time.Since(t0)
	runtime.GC()
	debug.FreeOSMemory()
	return d, err
}

// runBatch runs the passes, then checks and summarizes them.
func runBatch(e *env, b batchSpec) (*outcome, error) {
	n := b.n + lengthOffset(e.seed)
	e.stamp["n"] = n
	e.stamp["parallel"] = batchParallel
	e.stamp["sweep_shards"] = b.sweepShards
	if len(b.exhibits) > 0 {
		e.stamp["exhibits"] = strings.Join(b.exhibits, ",")
	}
	if e.traced {
		return runBatchTraced(e, b, n)
	}

	out := &outcome{metrics: map[string]float64{}}
	var passes []passResult
	cal := &calibratedRun{}
	cal.warm()
	cal.point()
	for k := 0; k < max(1, int(e.seconds/passSeconds)); k++ {
		pr, err := runPass(e, b, n, k, false)
		if err != nil {
			return nil, err
		}
		passes = append(passes, pr)
		cal.point()
	}
	var setups, walls, cpus []float64
	for _, p := range passes {
		setups = append(setups, p.setup.Seconds())
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
	}
	for k := len(setups); k < b.setups; k++ {
		d, err := extraSetup(e, b, n, k)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	checkPasses(out, b, n, passes)

	scale := cal.scale()
	out.metrics["setup_s"] = median(setups) * scale
	out.metrics["wall_s"] = median(walls) * scale
	out.metrics["cpu_s"] = median(cpus) * scale
	out.metrics["peak_rss_mb"] = peakRSSMB()
	e.stamp["calib_s"] = round3(durationsSeconds(cal.rounds))
	out.note("passes %d, raw wall_s %v, raw cpu_s %v, raw setup_s %v", len(passes), round3(walls), round3(cpus), round3(setups))
	noteCounters(out, passes[0].counters)
	return out, nil
}

// checkPasses fails every pass whose rendered report differs from the
// pinned digest, and the run if the exact counters moved between passes.
func checkPasses(out *outcome, b batchSpec, n int, passes []passResult) {
	want, pinned := pinnedDigests[digestKey(b.name, n)]
	for i, p := range passes {
		out.attempted++
		switch {
		case !pinned:
			out.failed++
			out.fail("no pinned digest for %s; pass %d rendered sha256 %s", digestKey(b.name, n), i, p.digest)
		case p.digest != want:
			out.failed++
			out.fail("pass %d of %s rendered sha256 %s, pinned %s", i, digestKey(b.name, n), p.digest, want)
		}
		if i > 0 {
			if d := diffCounters(passes[0].counters, p.counters); d != "" {
				out.fail("counters of pass %d differ from pass 0: %s", i, d)
			}
		}
	}
}

// diffCounters describes the counters whose values differ, or "".
func diffCounters(a, b map[string]int64) string {
	names := map[string]bool{}
	for k := range a {
		names[k] = true
	}
	for k := range b {
		names[k] = true
	}
	var diffs []string
	for k := range names {
		if a[k] != b[k] {
			diffs = append(diffs, fmt.Sprintf("%s %d vs %d", k, a[k], b[k]))
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, "; ")
}

// exactCounters are the counters a workload fixes: they repeat exactly
// between passes and between traced and untraced runs, so a later change
// may claim a difference in one of them as a count.
var exactCounters = []string{
	"core.oracle.builds", "core.oracle.candidates", "core.oracle.prune.events",
	"trace.pack.builds", "trace.pack.memo.misses",
	"sim.runs.fastpath", "sim.runs.reference", "sim.records",
	"sim.sweep.runs.fused", "sim.sweep.runs.fallback",
	"corpus.hits", "corpus.misses", "runner.cells.finished",
}

func noteCounters(out *outcome, c map[string]int64) {
	var parts []string
	for _, name := range exactCounters {
		parts = append(parts, fmt.Sprintf("%s=%d", name, c[name]))
	}
	out.note("exact counters: %s", strings.Join(parts, " "))
}

// runBatchTraced is the per-layer run: one untraced pass, one traced
// pass (system clock on the registries, cell spans from the runner
// observer), then the layer replay in a separate process.
func runBatchTraced(e *env, b batchSpec, n int) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	plain, err := runPass(e, b, n, 0, false)
	if err != nil {
		return nil, err
	}
	tr, err := runPass(e, b, n, 1, true)
	if err != nil {
		return nil, err
	}
	checkPasses(out, b, n, []passResult{plain, tr})
	noteCounters(out, tr.counters)

	m := out.metrics
	c := tr.counters
	engineLayers(m, c, tr.hists)
	m["trace.overhead_s"] = tr.wall.Seconds() - plain.wall.Seconds()
	var calls, misses int64
	for name, v := range c {
		if strings.HasPrefix(name, "suite.memo.") {
			switch {
			case strings.HasSuffix(name, ".calls"):
				calls += v
			case strings.HasSuffix(name, ".misses"):
				misses += v
			}
		}
	}
	m["experiments.memo.hit_frac"] = 1 - ratio(misses, calls)

	var busy, critical float64
	perExhibit := map[string]float64{}
	for _, s := range tr.spans[1:] {
		d := float64(s.dur()) / 1e9
		perExhibit[s.Name] += d
		busy += d
		critical = max(critical, d)
	}
	for _, x := range exhibits {
		m["experiments.cell."+x+"_s"] = perExhibit[x]
	}
	m["runner.busy_frac"] = busy / (tr.wall.Seconds() * batchParallel)
	m["runner.critical_cell_s"] = critical
	self := selfTimes(tr.spans)
	out.note("traced pass: wall %.3fs (untraced %.3fs), cpu %.3fs; pass self time (not covered by any cell) %.3fs",
		tr.wall.Seconds(), plain.wall.Seconds(), tr.cpu.Seconds(), float64(self[0])/1e9)
	oracle := m["core.oracle.profile_s"] + m["core.oracle.select_s"]
	out.note("core.oracle profile+select: %.3fs = %.1f%% of traced pass CPU", oracle, 100*oracle/tr.cpu.Seconds())

	spans, err := replayLayers(e, b, n)
	if err != nil {
		return nil, err
	}
	totals := spanTotals(spans)
	m["workloads.generate_s"] = totals["workloads.generate"].total
	m["corpus.put_s"] = totals["corpus.put"].total
	m["corpus.get_s"] = totals["corpus.get"].total
	m["core.classify_s"] = totals["core.classify"].total
	m["entropy.ceilings_s"] = totals["entropy.ceilings"].total
	noteSpanTotals(out, "layer replay", totals)
	if err := writeSpans(e, b.name, tr.spans, spans); err != nil {
		return nil, err
	}
	return out, nil
}

// engineLayers fills the per-layer metrics that come from the program's
// own counters and spans (histograms of nanoseconds).
func engineLayers(m map[string]float64, c map[string]int64, h map[string]obs.HistogramSnapshot) {
	secs := func(name string) float64 { return float64(h[name+".ns"].Sum) / 1e9 }
	m["trace.pack_s"] = secs("trace.pack")
	m["sim.simulate_s"] = secs("sim.simulate")
	m["sim.sweep_s"] = secs("sim.simulate_sweep")
	m["core.oracle.profile_s"] = secs("core.oracle.profile")
	m["core.oracle.select_s"] = secs("core.oracle.select")
	for _, name := range []string{"corpus.hits", "corpus.misses", "trace.pack.builds", "sim.runs.fastpath",
		"sim.runs.reference", "sim.sweep.runs.fused", "core.oracle.builds", "core.oracle.candidates", "core.oracle.prune.events"} {
		m[name] = float64(c[name])
	}
	m["sim.fastpath_frac"] = ratio(c["sim.runs.fastpath"], c["sim.runs.fastpath"]+c["sim.runs.reference"])
	m["sim.sweep.fused_frac"] = ratio(c["sim.sweep.runs.fused"], c["sim.sweep.runs.fused"]+c["sim.sweep.runs.fallback"])
}

// replayLayers runs perfbench-layers, which calls each layer's public
// entry point on the workload's traces and prints the spans it timed.
// It is a separate program so that a change to those entry points can
// break only the traced run, never the end-to-end one.
func replayLayers(e *env, b batchSpec, n int) ([]span, error) {
	args := []string{"-workload", b.name, "-n", fmt.Sprint(n), "-work", e.work,
		"-sweep-shards", fmt.Sprint(b.sweepShards)}
	cmd := exec.Command(filepath.Join(e.bin, "perfbench-layers"), args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		return nil, fmt.Errorf("layer replay output: %w", err)
	}
	return spans, nil
}

// spanTotal aggregates the spans of one name.
type spanTotal struct {
	count       int
	total, self float64 // seconds
}

func spanTotals(spans []span) map[string]spanTotal {
	self := selfTimes(spans)
	out := map[string]spanTotal{}
	for i, s := range spans {
		t := out[s.Name]
		t.count++
		t.total += float64(s.dur()) / 1e9
		t.self += float64(self[i]) / 1e9
		out[s.Name] = t
	}
	return out
}

func noteSpanTotals(out *outcome, title string, totals map[string]spanTotal) {
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Strings(names)
	out.note("%s spans: name, count, total s, self s", title)
	for _, name := range names {
		t := totals[name]
		out.note("  %-28s %5d %10.4f %10.4f", name, t.count, t.total, t.self)
	}
}

// writeSpans writes the traced run's spans, kept in memory until now,
// to the build directory for later inspection.
func writeSpans(e *env, workload string, pass, replay []span) error {
	b, err := json.MarshalIndent(map[string][]span{"pass": pass, "replay": replay}, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(e.bin, fmt.Sprintf("spans-%s-%d.json", workload, e.seed))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func round3(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*1000+0.5)) / 1000
	}
	return out
}

// digestKey names one pinned report.
func digestKey(workload string, n int) string { return fmt.Sprintf("%s/n=%d", workload, n) }
