// Package experiments reproduces every table and figure of Evers, Patel,
// Chappell & Patt (ISCA 1998) over the synthetic SPECint95 stand-in
// traces. One table (exhibits.go) declares each exhibit once; BuildReport
// runs the requested ones as (exhibit × workload) cells over a Suite, so
// that expensive intermediates (oracle selections, classifications,
// baseline predictor runs) are computed once per trace and reused across
// exhibits, exactly as the paper's own experiments share one simulation
// infrastructure.
package experiments

import (
	"fmt"
	"slices"
	"sync"

	"branchcorr/internal/bp"
	"branchcorr/internal/core"
	"branchcorr/internal/corpus"
	"branchcorr/internal/obs"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
	"branchcorr/internal/workloads"
)

// Config parameterizes the experiment suite. Zero values select the
// defaults documented in DESIGN.md §5; the paper's predictor and oracle
// parameters are package constants.
type Config struct {
	// Length is the number of dynamic conditional branches per workload
	// trace (default 1,000,000).
	Length int
	// Workloads restricts the suite to a subset of benchmark names;
	// empty means all eight.
	Workloads []string
	// Fig5Windows are the history lengths swept by Figure 5 (default
	// 8..32 step 4).
	Fig5Windows []int
	// SweepShards is the config-shard worker budget every sweep-driven
	// exhibit passes to sim (Options.Parallel): above 1, each grid
	// splits into up to that many contiguous sub-grids running on
	// separate cores, composing byte-identically. 0 or 1 (the default)
	// keeps sweeps sequential — and the shard-scheduling counters out of
	// the default metrics snapshot; negative selects GOMAXPROCS.
	SweepShards int
	// CorpusDir, when non-empty, names a content-addressed trace store
	// directory (internal/corpus): workload traces are loaded from it
	// when present and generated-then-stored otherwise, so repeat runs
	// skip generation entirely. Keys cover the workload name, Length,
	// and workloads.Revision; hits/misses surface as the corpus.*
	// counters on Obs. Empty (the default) bypasses the store, leaving
	// the default metrics snapshot untouched.
	CorpusDir string
	// ExtraSpecs adds the "extra" exhibit: a per-workload accuracy table
	// for these bp.Parse predictor specs (the -p flag of
	// cmd/experiments). Empty skips the exhibit entirely, so default
	// reports are unchanged.
	ExtraSpecs []string
	// Obs receives the suite's metrics — memoization hit rates, cell
	// spans via the runner observer, and (threaded through) the sim and
	// oracle counters. nil selects obs.Default(). Counter values depend
	// only on the configuration and requested exhibits, never on
	// parallelism.
	Obs *obs.Registry
}

// The paper's parameters (DESIGN.md §5).
const (
	// gshareBits is the gshare/IF-gshare global history length (the
	// paper's "16 branch history").
	gshareBits = 16
	// PAs geometry: 12-bit local history, 2^10-entry BHT, 2^6 PHTs.
	pasHistBits, pasBHTBits, pasPHTBits = 12, 10, 6
	// ifPAsBits is the interference-free PAs local history length.
	ifPAsBits = 16
	// oracleWindow is the selective-history oracle's window (its beam
	// keeps core's default of 16).
	oracleWindow = 16
)

var (
	// sweepGshareBits are the gshare history lengths the fused "sweeps"
	// exhibit runs in one trace pass per workload.
	sweepGshareBits = []uint{8, 10, 12, 14, 16, 18, 20, 22}
	// fig9Benchmarks are the benchmarks Figure 9 plots, as in the paper.
	fig9Benchmarks = []string{"gcc", "perl"}
	// fig9Percentiles are Figure 9's x-axis points: 0..100 step 5.
	fig9Percentiles = func() []float64 {
		var ps []float64
		for p := 0.0; p <= 100; p += 5 {
			ps = append(ps, p)
		}
		return ps
	}()
)

func (c Config) withDefaults() Config {
	if c.Length == 0 {
		c.Length = 1_000_000
	}
	if len(c.Workloads) == 0 {
		c.Workloads = workloads.Names()
	}
	if len(c.Fig5Windows) == 0 {
		c.Fig5Windows = []int{8, 12, 16, 20, 24, 28, 32}
	}
	return c
}

// globalBundle holds the per-trace results every global-correlation
// exhibit shares: oracle-selected selective predictors of sizes 1–3, the
// interference-free gshare, and the real gshare.
type globalBundle struct {
	sel  [core.MaxSelectiveRefs + 1]*sim.Result
	ifg  *sim.Result
	g    *sim.Result
	sels *core.Selections // the oracle's ref choices, for reuse
}

// baseBundle holds the baseline predictor runs shared by the section 4
// and 5 exhibits.
type baseBundle struct {
	static *sim.Result
	gshare *sim.Result
	pas    *sim.Result
}

// memo is a sync.Once-keyed memoization table: the first caller of a key
// computes the value while concurrent callers of the same key block and
// then share it, so parallel report cells never duplicate an expensive
// per-trace artifact (oracle passes, classifications, baseline runs).
type memo[T any] struct {
	mu sync.Mutex
	m  map[string]*memoEntry[T]
}

type memoEntry[T any] struct {
	once sync.Once
	val  T
}

// get returns the memoized value for key, computing it at most once.
func (m *memo[T]) get(key string, compute func() T) T {
	m.mu.Lock()
	if m.m == nil {
		m.m = make(map[string]*memoEntry[T])
	}
	e := m.m[key]
	if e == nil {
		e = &memoEntry[T]{}
		m.m[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.val = compute() })
	return e.val
}

// Suite generates the workload traces once and computes shared
// intermediates lazily. Shared intermediates are memoized behind
// sync.Once keys, so the per-workload report cells BuildReport schedules
// run concurrently.
type Suite struct {
	cfg     Config
	obs     *obs.Registry
	traces  []*trace.Trace
	sels    memo[[]*core.Selections]
	global  memo[*globalBundle]
	classes memo[*core.PAClassification]
	base    memo[*baseBundle]
	log     func(format string, args ...any)

	// oracleWindows is the window list every per-trace oracle grid
	// covers: sorted(Fig5Windows ∪ {oracleWindow}) when the report asks
	// for fig5, {oracleWindow} otherwise. BuildReport sets it before any
	// cell runs.
	oracleWindows []int

	// oracleGrid runs the full oracle pipeline for one trace at every
	// window of an ascending list. It defaults to core.OracleGrid's
	// columnar kernels over the memoized packed view; differential tests
	// swap in a loop of core.ReferenceBuildSelective calls to prove
	// report bytes are implementation-independent.
	oracleGrid func(tr *trace.Trace, windows []int, cfg core.OracleConfig) []*core.Selections

	// simRun drives a batch of predictors over a trace. It defaults to
	// sim.Simulate (with the suite's registry), whose columnar fast path
	// kicks in per predictor with a batched kernel; differential tests
	// swap in a ForceReference call to prove report bytes are
	// engine-independent.
	simRun func(tr *trace.Trace, predictors ...bp.Predictor) []*sim.Result

	// simTimeline is simRun's counterpart for the training-time exhibit;
	// it defaults to sim.Simulate with a bucket size (same fast-path
	// dispatch), and the differential tests swap in a kernel-stripping
	// wrapper.
	simTimeline func(tr *trace.Trace, bucket int, predictors ...bp.Predictor) []*sim.Timeline

	// simSweep drives a whole config grid over a trace in one call. It
	// defaults to sim.SimulateSweep, which replays the grid's fused
	// SweepBlock; differential tests swap in a ForceReference call to
	// prove report bytes are engine-independent.
	simSweep func(tr *trace.Trace, grid bp.SweepGrid) *sim.SweepOutcome
}

// NewSuite checks the configured extra specs, then generates traces for
// the configured workloads and returns a ready suite. A spec that cannot
// parse fails here, before any trace exists: the check hands every spec
// the profiling context of an empty trace, so specs that need it
// (ideal-static, profiled-gshare, hybrids of them) parse in full; each
// gets its real context per trace.
// logf, if non-nil, receives progress lines (trace generation and oracle
// passes are the slow steps); the suite serializes calls to it, so the
// callback itself need not be safe for concurrent use.
func NewSuite(cfg Config, logf func(format string, args ...any)) (*Suite, error) {
	cfg = cfg.withDefaults()
	// The statistics of an empty trace, written out so that the check
	// packs no trace unless a spec reads one.
	env := bp.Env{
		Stats: &trace.Stats{Name: "spec-check", Sites: map[trace.Addr]*trace.SiteStats{}},
		Trace: trace.New("spec-check", 0),
	}
	for _, spec := range cfg.ExtraSpecs {
		if _, err := bp.Parse(spec, env); err != nil {
			return nil, err
		}
	}
	if logf == nil {
		logf = func(string, ...any) {}
	} else {
		var mu sync.Mutex
		inner := logf
		logf = func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			inner(format, args...)
		}
	}
	s := &Suite{cfg: cfg, obs: obs.Or(cfg.Obs), log: logf, oracleWindows: []int{oracleWindow}}
	s.oracleGrid = func(tr *trace.Trace, windows []int, ocfg core.OracleConfig) []*core.Selections {
		return core.OracleGrid(tr, windows, core.OracleOptions{OracleConfig: ocfg})
	}
	s.simRun = func(tr *trace.Trace, predictors ...bp.Predictor) []*sim.Result {
		return sim.Simulate(tr, predictors, sim.Options{Observer: cfg.Obs}).Results
	}
	s.simTimeline = func(tr *trace.Trace, bucket int, predictors ...bp.Predictor) []*sim.Timeline {
		return sim.Simulate(tr, predictors, sim.Options{BucketSize: bucket, Observer: cfg.Obs}).Timelines
	}
	s.simSweep = func(tr *trace.Trace, grid bp.SweepGrid) *sim.SweepOutcome {
		return sim.SimulateSweep(tr, grid, sim.Options{Observer: cfg.Obs, Parallel: cfg.SweepShards})
	}
	var store *corpus.Store
	if cfg.CorpusDir != "" {
		var err error
		if store, err = corpus.Open(cfg.CorpusDir, cfg.Obs); err != nil {
			return nil, err
		}
	}
	for _, name := range cfg.Workloads {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		if store != nil {
			key := corpus.Key(name, cfg.Length, workloads.Revision)
			tr, err := store.GetTrace(key, func() *trace.Trace {
				logf("generating %s (%d branches)", name, cfg.Length)
				return w.Generate(cfg.Length)
			})
			if err != nil {
				return nil, err
			}
			logf("corpus: %s ready (%d branches)", name, tr.Len())
			s.traces = append(s.traces, tr)
			continue
		}
		logf("generating %s (%d branches)", name, cfg.Length)
		s.traces = append(s.traces, w.Generate(cfg.Length))
	}
	return s, nil
}

// names returns the benchmark names in suite order.
func (s *Suite) names() []string {
	out := make([]string, len(s.traces))
	for i, tr := range s.traces {
		out[i] = tr.Name()
	}
	return out
}

func newGshare() bp.Predictor   { return bp.NewGshare(gshareBits) }
func newIFGshare() bp.Predictor { return bp.NewIFGshare(gshareBits) }
func newPAs() bp.Predictor      { return bp.NewPAs(pasHistBits, pasBHTBits, pasPHTBits) }

// gridWindows returns the oracle window list of a report: the default
// window, plus every Figure 5 window when withFig5 is set.
func (s *Suite) gridWindows(withFig5 bool) []int {
	windows := []int{oracleWindow}
	if withFig5 {
		windows = append(windows, s.cfg.Fig5Windows...)
	}
	slices.Sort(windows)
	return slices.Compact(windows)
}

// selsFor computes (once) the oracle's selective-history ref choices for
// a trace at every window of s.oracleWindows, in one grid build, and
// returns a lookup by window length (which must be in the list). The
// per-branch bundle (globalFor) and every Figure 5 window read the same
// memoized grid, so a report pays for one oracle build per trace.
func (s *Suite) selsFor(tr *trace.Trace) func(n int) *core.Selections {
	windows := s.oracleWindows
	s.obs.Counter("suite.memo.sels.calls").Inc()
	grid := s.sels.get(fmt.Sprint(tr.Name(), windows), func() []*core.Selections {
		s.obs.Counter("suite.memo.sels.misses").Inc()
		s.log("%s: oracle selection (windows %v)", tr.Name(), windows)
		return s.oracleGrid(tr, windows, core.OracleConfig{Obs: s.cfg.Obs})
	})
	return func(n int) *core.Selections { return grid[slices.Index(windows, n)] }
}

// globalFor computes (once) the selective/IF-gshare/gshare results for a
// trace at the configured oracle window. Concurrent callers for the same
// trace block on one computation and share its bundle.
func (s *Suite) globalFor(tr *trace.Trace) *globalBundle {
	s.obs.Counter("suite.memo.global.calls").Inc()
	return s.global.get(tr.Name(), func() *globalBundle {
		s.obs.Counter("suite.memo.global.misses").Inc()
		sels := s.selsFor(tr)(oracleWindow)
		selective := []bp.Predictor{
			core.NewSelective(fmt.Sprintf("IF 1-branch selective(%d)", oracleWindow), oracleWindow, sels.BySize[1]),
			core.NewSelective(fmt.Sprintf("IF 2-branch selective(%d)", oracleWindow), oracleWindow, sels.BySize[2]),
			core.NewSelective(fmt.Sprintf("IF 3-branch selective(%d)", oracleWindow), oracleWindow, sels.BySize[3]),
		}
		s.log("%s: simulating selective + gshare predictors", tr.Name())
		// One batch: every predictor here has a batched kernel, so all
		// five take sim's columnar fast path.
		rs := s.simRun(tr, append(selective, newIFGshare(), newGshare())...)
		b := &globalBundle{ifg: rs[3], g: rs[4], sels: sels}
		b.sel[1], b.sel[2], b.sel[3] = rs[0], rs[1], rs[2]
		return b
	})
}

// classFor computes (once) the per-address classification of a trace.
func (s *Suite) classFor(tr *trace.Trace) *core.PAClassification {
	s.obs.Counter("suite.memo.classes.calls").Inc()
	return s.classes.get(tr.Name(), func() *core.PAClassification {
		s.obs.Counter("suite.memo.classes.misses").Inc()
		s.log("%s: per-address classification", tr.Name())
		return core.ClassifyPerAddress(tr, core.ClassifyConfig{IFPAsHistoryBits: ifPAsBits})
	})
}

// baseFor computes (once) the ideal-static, gshare, and PAs baselines.
func (s *Suite) baseFor(tr *trace.Trace) *baseBundle {
	s.obs.Counter("suite.memo.base.calls").Inc()
	return s.base.get(tr.Name(), func() *baseBundle {
		s.obs.Counter("suite.memo.base.misses").Inc()
		s.log("%s: baseline predictors (static, gshare, PAs)", tr.Name())
		stats := trace.Summarize(tr)
		rs := s.simRun(tr, bp.NewIdealStatic(stats), newGshare(), newPAs())
		return &baseBundle{static: rs[0], gshare: rs[1], pas: rs[2]}
	})
}

// traceByName returns the suite trace with the given benchmark name.
func (s *Suite) traceByName(name string) *trace.Trace {
	for _, tr := range s.traces {
		if tr.Name() == name {
			return tr
		}
	}
	return nil
}

// pct formats a fraction as a percentage with two decimals.
func pct(v float64) string { return fmt.Sprintf("%.2f", 100*v) }
