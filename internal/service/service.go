// Package service is bpsimd's engine room: an HTTP/JSON simulation
// service over the repo's trace, simulation, oracle, and classification
// engines, speaking the versioned api/v1 wire schema.
//
// The contract is determinism: a request's payload bytes depend only on
// the request and the trace it names — never on service concurrency,
// scheduling, or cache state. Three mechanisms carry that:
//
//   - Engines already guarantee parallelism-invariant results, so the
//     server may run them at any worker budget.
//   - Response metrics are each request's own registry (counters and
//     gauges only — histograms hold wall-clock durations and stay out),
//     merged into the process registry after the payload is sealed.
//     Scheduler, corpus, and cache metrics land only in the process
//     registry, because they depend on what other requests did.
//   - The payload cache stores sealed canonical bytes and replays them
//     verbatim; requests are canonicalized (specs by parse round-trip)
//     before keying, so equivalent requests share an entry.
//
// The parallel-load differential test pins the contract end to end:
// a mixed workload at worker budget 8 is byte-identical to the same
// requests replayed sequentially, cold cache and warm.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"

	v1 "branchcorr/internal/api/v1"
	"branchcorr/internal/bp"
	"branchcorr/internal/core"
	"branchcorr/internal/corpus"
	"branchcorr/internal/obs"
	"branchcorr/internal/runner"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
	"branchcorr/internal/workloads"
)

// Config parameterizes a Server. The zero value of every field selects
// a sensible default.
type Config struct {
	// CorpusDir is the content-addressed trace store directory
	// (required).
	CorpusDir string
	// Workers bounds how many requests compute simultaneously; further
	// requests queue (default 4). It is an admission budget — each
	// admitted request may itself use SimParallel engine workers.
	Workers int
	// SimParallel is the per-request engine worker budget handed to
	// sim.Options.Parallel / core's ScoreParallel (default 1). Results
	// are byte-identical at every setting; this only trades single-
	// request latency against cross-request fairness.
	SimParallel int
	// CacheEntries caps the payload cache (default 256 entries).
	CacheEntries int
	// TraceEntries caps the in-memory decoded-trace cache (default 8).
	TraceEntries int
	// DefaultTraceN is the generated-trace length when a workload ref
	// leaves N zero (default workloads.DefaultLength).
	DefaultTraceN int
	// MaxTraceN rejects workload refs longer than this with a too-large
	// error (default 8,000,000).
	MaxTraceN int
	// MaxUploadBytes bounds a trace upload body (default 64 MiB).
	MaxUploadBytes int64
	// Registry is the process registry receiving scheduler, corpus, and
	// merged per-request metrics; nil selects obs.Default().
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	// Negative values clamp to the defaults too: a negative Workers
	// would panic in make(chan), and a negative cache capacity would
	// drive the eviction loop off the end of its order slice.
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.SimParallel <= 0 {
		c.SimParallel = 1
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.TraceEntries <= 0 {
		c.TraceEntries = 8
	}
	if c.DefaultTraceN <= 0 {
		c.DefaultTraceN = workloads.DefaultLength
	}
	if c.MaxTraceN <= 0 {
		c.MaxTraceN = 8_000_000
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 64 << 20
	}
	return c
}

// Server is the bpsimd service: construct with New, mount Handler on an
// http.Server.
type Server struct {
	cfg    Config
	reg    *obs.Registry
	store  *corpus.Store
	cache  *payloadCache
	traces *traceCache

	sem     chan struct{} // admission slots, cap cfg.Workers
	waiting atomic.Int64
}

// New opens the corpus store and builds a server.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	reg := obs.Or(cfg.Registry)
	store, err := corpus.Open(cfg.CorpusDir, reg)
	if err != nil {
		return nil, err
	}
	return &Server{
		cfg:    cfg,
		reg:    reg,
		store:  store,
		cache:  newPayloadCache(cfg.CacheEntries, reg),
		traces: newTraceCache(cfg.TraceEntries),
		sem:    make(chan struct{}, cfg.Workers),
	}, nil
}

// Handler returns the service's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+v1.PathPrefix+"/traces", s.handleUpload)
	mux.HandleFunc("POST "+v1.PathPrefix+"/simulate", s.handleSimulate)
	mux.HandleFunc("POST "+v1.PathPrefix+"/sweep", s.handleSweep)
	mux.HandleFunc("POST "+v1.PathPrefix+"/oracle", s.handleOracle)
	mux.HandleFunc("POST "+v1.PathPrefix+"/classify", s.handleClassify)
	mux.HandleFunc("GET "+v1.PathPrefix+"/metrics", s.handleMetrics)
	mux.HandleFunc("GET "+v1.PathPrefix+"/healthz", s.handleHealthz)
	return mux
}

// reqError pairs an error with its wire code; writeError unwraps it.
type reqError struct {
	code string
	err  error
}

func (e *reqError) Error() string { return e.err.Error() }
func (e *reqError) Unwrap() error { return e.err }

func badRequest(err error) error  { return &reqError{code: "bad-request", err: err} }
func notFound(err error) error    { return &reqError{code: "not-found", err: err} }
func tooLarge(err error) error    { return &reqError{code: "too-large", err: err} }
func internalErr(err error) error { return &reqError{code: "internal", err: err} }

// canceledErr classifies a client that gave up (context canceled or
// deadline exceeded) as its own wire code, so aborted requests don't
// inflate the internal-error counter or read as server faults.
func canceledErr(err error) error { return &reqError{code: "canceled", err: err} }

// statusClientClosedRequest is nginx's convention for "the client went
// away before the response"; there is no standard-library constant.
const statusClientClosedRequest = 499

func httpStatus(code string) int {
	switch code {
	case "not-found":
		return http.StatusNotFound
	case "too-large":
		return http.StatusRequestEntityTooLarge
	case "canceled":
		return statusClientClosedRequest
	case "internal":
		return http.StatusInternalServerError
	default:
		// bad-request and the bp.ErrKind spec-error codes.
		return http.StatusBadRequest
	}
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	code := "internal"
	var re *reqError
	if errors.As(err, &re) {
		code = re.code
	}
	e := v1.ErrorFrom(code, err) // a bp.ParseError overrides code with its kind
	s.reg.Counter("service.errors." + e.Code).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(httpStatus(e.Code))
	_ = v1.Encode(w, v1.ErrorResponse{Error: e})
}

func (s *Server) writePayload(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
}

// decode strictly reads a bounded JSON request body.
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	if err := v1.DecodeStrict(http.MaxBytesReader(w, r.Body, v1.MaxRequestBytes), v); err != nil {
		return badRequest(fmt.Errorf("request body: %w", err))
	}
	return nil
}

// admit blocks until a worker slot is free (or the request dies). The
// queue gauge records the high-water mark of waiting requests.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	s.reg.Gauge("service.queue").Max(s.waiting.Add(1))
	defer s.waiting.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	case <-ctx.Done():
		return nil, canceledErr(ctx.Err())
	}
}

// compute produces the canonical payload bytes for one cache key:
// single-flight through the payload cache, admission under the worker
// budget, the build run as a runner cell (canonical error identity,
// cell accounting in the process registry), and the request's private
// metrics merged into the process registry only after the payload is
// sealed — a cache hit replays bytes and merges nothing.
func (s *Server) compute(ctx context.Context, endpoint string, rt resolvedTrace, key string,
	build func(reg *obs.Registry) (any, error)) ([]byte, error) {
	// The flight is shared by every request coalesced on this key, so it
	// must outlive any one of them: detached from the first caller's
	// cancellation, a client that disconnects while its flight is queued
	// or mid-compute doesn't poison the waiters with its abort.
	ctx = context.WithoutCancel(ctx)
	return s.cache.do(key, func() ([]byte, error) {
		release, err := s.admit(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
		reqReg := obs.New()
		var payload any
		var buildErr error
		cell := runner.Cell{Exhibit: endpoint, Workload: rt.tr.Name(), Run: func(context.Context) (err error) {
			defer func() {
				// A panicking engine must not take the process down; it
				// surfaces as an internal error on this request only.
				if r := recover(); r != nil {
					err = internalErr(fmt.Errorf("%s: panic: %v", endpoint, r))
					buildErr = err
				}
			}()
			payload, buildErr = build(reqReg)
			return buildErr
		}}
		if rerr := runner.Run(ctx, []runner.Cell{cell}, runner.Options{
			Parallel: 1,
			Observer: runner.RegistryObserver(s.reg),
		}); rerr != nil {
			// Prefer the build's own error: the runner wraps it with the
			// cell identity, which would bury the wire code mapping...
			// except reqError and ParseError unwrap through the wrapping,
			// so either works; the bare error just reads better.
			if buildErr != nil {
				return nil, buildErr
			}
			return nil, rerr
		}
		b, err := v1.Marshal(payload)
		if err != nil {
			return nil, internalErr(err)
		}
		s.reg.Merge(reqReg.Snapshot())
		return b, nil
	})
}

// schedulingMetric reports whether a metric records scheduler shape —
// how the engine split the work — rather than the work itself. The
// engines keep those deliberately (a sharded sweep counts its shards),
// but they vary with the server's SimParallel setting, so they stay out
// of payloads and live only in the process registry.
func schedulingMetric(name string) bool {
	return name == "sim.sweep.runs.sharded" ||
		strings.HasPrefix(name, "sim.sweep.shards") ||
		strings.HasPrefix(name, "runner.")
}

// requestMetrics seals a request registry into the payload's Metrics
// field: counters and gauges only (histograms hold durations), minus
// scheduling-shape metrics — what remains is a deterministic function
// of (trace, request).
func requestMetrics(reg *obs.Registry) obs.Snapshot {
	s := reg.Snapshot().WithoutHistograms()
	for name := range s.Counters {
		if schedulingMetric(name) {
			delete(s.Counters, name)
		}
	}
	for name := range s.Gauges {
		if schedulingMetric(name) {
			delete(s.Gauges, name)
		}
	}
	return s
}

// canonicalSpecs parses every spec and returns the canonical name list
// (bp.Predictor.Name(), the grammar's round-trip form), so equivalent
// spellings key one cache entry. Specs needing profiling context are
// parsed against the resolved trace; the trace summary is computed only
// if some spec actually needs it.
func canonicalSpecs(specs []string, tr *trace.Trace) ([]bp.Predictor, []string, error) {
	if len(specs) == 0 {
		return nil, nil, badRequest(errors.New("specs: at least one predictor spec is required"))
	}
	if len(specs) > 64 {
		return nil, nil, badRequest(fmt.Errorf("specs: %d exceeds the per-request limit 64", len(specs)))
	}
	preds := make([]bp.Predictor, len(specs))
	names := make([]string, len(specs))
	var env *bp.Env
	for i, spec := range specs {
		p, err := bp.Parse(spec, bp.Env{})
		var pe *bp.ParseError
		if errors.As(err, &pe) && pe.Kind == bp.ErrMissingContext {
			if env == nil {
				env = &bp.Env{Stats: trace.Summarize(tr), Trace: tr}
			}
			p, err = bp.Parse(spec, *env)
		}
		if err != nil {
			return nil, nil, err
		}
		preds[i] = p
		names[i] = p.Name()
	}
	return preds, names, nil
}

func (s *Server) countRequest(endpoint string) {
	s.reg.Counter("service.requests." + endpoint).Inc()
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s.countRequest("simulate")
	var req v1.SimulateRequest
	if err := decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if req.BucketSize < 0 {
		s.writeError(w, badRequest(errors.New("bucket_size must be non-negative")))
		return
	}
	rt, err := s.resolve(req.Trace)
	if err != nil {
		s.writeError(w, err)
		return
	}
	preds, names, err := canonicalSpecs(req.Specs, rt.tr)
	if err != nil {
		s.writeError(w, err)
		return
	}
	key := fmt.Sprintf("simulate|%s|bucket=%d|perbranch=%t|%s",
		rt.key, req.BucketSize, req.PerBranch, strings.Join(names, "\x00"))
	b, err := s.compute(r.Context(), "simulate", rt, key, func(reg *obs.Registry) (any, error) {
		out := sim.Simulate(rt.tr, preds, sim.Options{
			Parallel:   s.cfg.SimParallel,
			BucketSize: req.BucketSize,
			Observer:   reg,
		})
		resp := v1.SimulateResponse{Trace: rt.info()}
		for i, res := range out.Results {
			var tl *sim.Timeline
			if out.Timelines != nil {
				tl = out.Timelines[i]
			}
			resp.Results = append(resp.Results, v1.NewPredictorResult(res, tl, req.PerBranch))
		}
		resp.Metrics = requestMetrics(reg)
		return resp, nil
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writePayload(w, b)
}

// maxGridCounters bounds the counter entries (one byte each) one sweep
// grid may allocate: 2^27, 128 MiB. The serve benchmark's largest grid,
// 4 configs of at most 2^20 entries, is far below it.
const maxGridCounters = 1 << 27

// tableEntries sums 2^b counter entries over table-bit axis values.
// Values past 30 are out of every family's range and count nothing:
// the constructor guards reject them as bad-param.
func tableEntries(bits ...uint) uint64 {
	n := uint64(0)
	for _, b := range bits {
		if b <= 30 {
			n += 1 << b
		}
	}
	return n
}

// buildGrid turns a wire grid spec into a sweep grid. The dense-table
// families (gshare-hist, bimodal-size, hybrid) sum their counter
// entries from the axis values first and reject a grid over
// maxGridCounters as too-large, before any table is allocated.
// Constructor geometry guards panic on out-of-range parameters before
// allocating; like bp.Parse, a wire spec is user input, so those panics
// surface as bad-param errors.
func buildGrid(g v1.GridSpec, tr *trace.Trace) (grid bp.SweepGrid, err error) {
	defer func() {
		if r := recover(); r != nil {
			grid, err = nil, &bp.ParseError{Spec: g.Family, Token: g.Family, Kind: bp.ErrBadParam, Reason: fmt.Sprint(r)}
		}
	}()
	axis := func(name string, vals []uint) ([]uint, error) {
		if len(vals) == 0 {
			return nil, badRequest(fmt.Errorf("grid: family %q needs a non-empty %s axis", g.Family, name))
		}
		if len(vals) > 64 {
			return nil, badRequest(fmt.Errorf("grid: %s axis length %d exceeds the limit 64", name, len(vals)))
		}
		return vals, nil
	}
	budget := func(entries uint64) error {
		if entries > maxGridCounters {
			return tooLarge(fmt.Errorf("grid: %d counter entries exceed the limit %d", entries, maxGridCounters))
		}
		return nil
	}
	switch g.Family {
	case "gshare-hist":
		hist, err := axis("hist", g.Hist)
		if err != nil {
			return nil, err
		}
		if err := budget(tableEntries(hist...)); err != nil {
			return nil, err
		}
		return bp.NewGshareSweep(hist), nil
	case "bimodal-size":
		table, err := axis("table", g.Table)
		if err != nil {
			return nil, err
		}
		if err := budget(tableEntries(table...)); err != nil {
			return nil, err
		}
		return bp.NewBimodalSweep(table), nil
	case "if-gshare":
		hist, err := axis("hist", g.Hist)
		if err != nil {
			return nil, err
		}
		return bp.NewIFGshareSweep(hist), nil
	case "if-pas":
		hist, err := axis("hist", g.Hist)
		if err != nil {
			return nil, err
		}
		return bp.NewIFPAsSweep(hist), nil
	case "hybrid":
		hist, err := axis("hist", g.Hist)
		if err != nil {
			return nil, err
		}
		bimodal, chooser := g.BimodalBits, g.ChooserBits
		if bimodal == 0 {
			bimodal = 12
		}
		if chooser == 0 {
			chooser = 12
		}
		// One shared bimodal table, a PHT and a chooser per config.
		entries := tableEntries(bimodal) + tableEntries(hist...) + uint64(len(hist))*tableEntries(chooser)
		if err := budget(entries); err != nil {
			return nil, err
		}
		return bp.NewHybridSweep(hist, bimodal, chooser), nil
	case "specs":
		preds, names, err := canonicalSpecs(g.Specs, tr)
		if err != nil {
			return nil, err
		}
		return bp.NewPredictorGrid("specs("+strings.Join(names, ",")+")", preds), nil
	default:
		return nil, badRequest(fmt.Errorf("grid: unknown family %q", g.Family))
	}
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.countRequest("sweep")
	var req v1.SweepRequest
	if err := decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	rt, err := s.resolve(req.Trace)
	if err != nil {
		s.writeError(w, err)
		return
	}
	grid, err := buildGrid(req.Grid, rt.tr)
	if err != nil {
		s.writeError(w, err)
		return
	}
	// The grid's own canonical identity — name plus per-config labels —
	// keys the cache, so equivalent wire spellings share an entry.
	key := fmt.Sprintf("sweep|%s|%s|%s", rt.key, grid.GridName(), strings.Join(grid.ConfigNames(), "\x00"))
	b, err := s.compute(r.Context(), "sweep", rt, key, func(reg *obs.Registry) (any, error) {
		out := sim.SimulateSweep(rt.tr, grid, sim.Options{Parallel: s.cfg.SimParallel, Observer: reg})
		return v1.SweepResponse{
			Trace:   rt.info(),
			Grid:    out.Grid,
			Total:   int64(out.Total),
			Configs: v1.NewSweepConfigs(out),
			Metrics: requestMetrics(reg),
		}, nil
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writePayload(w, b)
}

// oracleParams canonicalizes an oracle request: defaults applied,
// schemes parsed, stage resolved. The canonical form is the cache key,
// so e.g. an explicit window_len 16 and the default share an entry.
func oracleParams(req v1.OracleRequest) (core.OracleOptions, string, error) {
	cfg := core.OracleConfig{
		WindowLen:     req.WindowLen,
		TopK:          req.TopK,
		MaxCandidates: req.MaxCandidates,
	}
	switch {
	case cfg.WindowLen < 0 || cfg.WindowLen > 64:
		return core.OracleOptions{}, "", badRequest(fmt.Errorf("window_len %d outside [0, 64]", cfg.WindowLen))
	case cfg.TopK < 0 || cfg.TopK > 32:
		return core.OracleOptions{}, "", badRequest(fmt.Errorf("top_k %d outside [0, 32]", cfg.TopK))
	case cfg.MaxCandidates < 0 || cfg.MaxCandidates > 1<<20:
		return core.OracleOptions{}, "", badRequest(fmt.Errorf("max_candidates %d outside [0, %d]", cfg.MaxCandidates, 1<<20))
	}
	if cfg.WindowLen == 0 {
		cfg.WindowLen = 16
	}
	if cfg.TopK == 0 {
		cfg.TopK = 16
	}
	if cfg.MaxCandidates == 0 {
		cfg.MaxCandidates = 2048
	}
	// Scheme membership is order-insensitive; sort-deduplicate so any
	// spelling of "both" keys like the default.
	seen := map[string]core.Scheme{"occ": core.Occurrence, "back": core.BackwardCount}
	var schemes []string
	for _, name := range req.Schemes {
		if _, ok := seen[name]; !ok {
			return core.OracleOptions{}, "", badRequest(fmt.Errorf("schemes: unknown scheme %q (want occ or back)", name))
		}
		schemes = append(schemes, name)
	}
	sort.Strings(schemes)
	schemes = slicesCompact(schemes)
	if len(schemes) == 2 {
		schemes = nil // both schemes is the default
	}
	for _, name := range schemes {
		cfg.Schemes = append(cfg.Schemes, seen[name])
	}

	opts := core.OracleOptions{OracleConfig: cfg}
	switch req.Stage {
	case "", "full":
		opts.Stage = core.StageFull
	case "profile":
		opts.Stage = core.StageProfile
	default:
		return core.OracleOptions{}, "", badRequest(fmt.Errorf("stage: %q (want full or profile)", req.Stage))
	}
	canon := fmt.Sprintf("stage=%s|window=%d|topk=%d|maxcand=%d|schemes=%s",
		opts.Stage, cfg.WindowLen, cfg.TopK, cfg.MaxCandidates, strings.Join(schemes, ","))
	return opts, canon, nil
}

// slicesCompact removes adjacent duplicates from a sorted slice.
func slicesCompact(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func (s *Server) handleOracle(w http.ResponseWriter, r *http.Request) {
	s.countRequest("oracle")
	var req v1.OracleRequest
	if err := decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	rt, err := s.resolve(req.Trace)
	if err != nil {
		s.writeError(w, err)
		return
	}
	opts, canon, err := oracleParams(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	key := fmt.Sprintf("oracle|%s|%s", rt.key, canon)
	b, err := s.compute(r.Context(), "oracle", rt, key, func(reg *obs.Registry) (any, error) {
		opts := opts
		opts.Obs = reg
		opts.ScoreParallel = s.cfg.SimParallel
		sel := core.Oracle(rt.tr, opts)
		resp := v1.OracleResponse{Trace: rt.info()}
		switch opts.Stage {
		case core.StageProfile:
			resp.Candidates = v1.NewOracleCandidates(sel.Candidates)
		default:
			resp.Sizes = v1.NewOracleAssignments(sel)
		}
		resp.Metrics = requestMetrics(reg)
		return resp, nil
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writePayload(w, b)
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	s.countRequest("classify")
	var req v1.ClassifyRequest
	if err := decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if req.IFPAsHistoryBits > 28 {
		s.writeError(w, badRequest(fmt.Errorf("if_pas_history_bits %d exceeds the limit 28", req.IFPAsHistoryBits)))
		return
	}
	if req.HighBias < 0 || req.HighBias >= 1 {
		s.writeError(w, badRequest(fmt.Errorf("high_bias %g outside [0, 1)", req.HighBias)))
		return
	}
	rt, err := s.resolve(req.Trace)
	if err != nil {
		s.writeError(w, err)
		return
	}
	cfg := core.ClassifyConfig{IFPAsHistoryBits: req.IFPAsHistoryBits, HighBias: req.HighBias}
	if cfg.IFPAsHistoryBits == 0 {
		cfg.IFPAsHistoryBits = 16
	}
	if cfg.HighBias == 0 {
		cfg.HighBias = 0.99
	}
	key := fmt.Sprintf("classify|%s|bits=%d|bias=%g", rt.key, cfg.IFPAsHistoryBits, cfg.HighBias)
	b, err := s.compute(r.Context(), "classify", rt, key, func(reg *obs.Registry) (any, error) {
		cfg := cfg
		cfg.Obs = reg
		p := core.ClassifyPerAddress(rt.tr, cfg)
		return v1.ClassifyResponse{
			Trace:              rt.info(),
			Classes:            v1.NewClassShares(p),
			StaticHighBiasFrac: p.StaticHighBiasFrac(),
			Metrics:            requestMetrics(reg),
		}, nil
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writePayload(w, b)
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	s.countRequest("upload")
	body, err := readBounded(r, s.cfg.MaxUploadBytes)
	if err != nil {
		s.writeError(w, err)
		return
	}
	pt, key, err := decodeUpload(body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	// Content addressing makes uploads idempotent: a known key skips the
	// write, and the response is identical either way (no dedupe flag —
	// it would leak store state into payload bytes).
	if !s.store.Has(key) {
		if err := s.store.PutPacked(key, pt); err != nil {
			s.writeError(w, internalErr(err))
			return
		}
	}
	s.reg.Counter("service.uploads").Inc()
	b, err := v1.Marshal(v1.UploadResponse{Key: key, Branches: pt.Len(), Sites: pt.NumBranches()})
	if err != nil {
		s.writeError(w, internalErr(err))
		return
	}
	s.writePayload(w, b)
}

// readBounded reads a request body up to limit bytes, failing as
// too-large one byte past it.
func readBounded(r *http.Request, limit int64) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		return nil, badRequest(err)
	}
	if int64(len(body)) > limit {
		return nil, tooLarge(fmt.Errorf("upload body exceeds %d bytes", limit))
	}
	return body, nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.reg.WriteJSON(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}
