package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"

	v1 "branchcorr/internal/api/v1"
	"branchcorr/internal/bp"
	"branchcorr/internal/core"
	"branchcorr/internal/obs"
	"branchcorr/internal/sim"
	"branchcorr/internal/workloads"
)

// testN keeps test traces small enough that every endpoint (the oracle
// included) runs in milliseconds.
const testN = 1500

// newTestServer boots a service on a fresh corpus dir and registry,
// returning the server (for registry access) and its HTTP front.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		CorpusDir:     t.TempDir(),
		DefaultTraceN: testN,
		MaxTraceN:     4 * testN,
		Registry:      obs.New(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends one request and returns the status and raw payload bytes.
func post(t *testing.T, ts *httptest.Server, path string, req any) (int, []byte) {
	t.Helper()
	body, err := v1.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func mustDecode[T any](t *testing.T, b []byte) T {
	t.Helper()
	var v T
	if err := v1.DecodeStrict(bytes.NewReader(b), &v); err != nil {
		t.Fatalf("decoding response %q: %v", b, err)
	}
	return v
}

// TestSimulateEndpoint checks the simulate path against a direct engine
// run: same counts, canonical spec names, trace info filled in.
func TestSimulateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	status, b := post(t, ts, "/v1/simulate", v1.SimulateRequest{
		Trace: v1.TraceRef{Workload: "gcc"},
		Specs: []string{"gshare:10", "bimodal:10"},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, b)
	}
	resp := mustDecode[v1.SimulateResponse](t, b)
	if resp.Trace.Branches != testN || resp.Trace.Name != "gcc" || resp.Trace.Key == "" {
		t.Errorf("trace info = %+v", resp.Trace)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(resp.Results))
	}

	w, err := workloads.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	tr := w.Generate(testN)
	preds, err := bp.ParseAll([]string{"gshare:10", "bimodal:10"}, bp.Env{})
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Simulate(tr, preds, sim.Options{})
	for i, res := range resp.Results {
		if res.Spec != preds[i].Name() {
			t.Errorf("result %d spec = %q, want canonical %q", i, res.Spec, preds[i].Name())
		}
		if res.Correct != int64(want.Results[i].Correct) || res.Total != int64(testN) {
			t.Errorf("result %d = %d/%d, want %d/%d", i, res.Correct, res.Total, want.Results[i].Correct, testN)
		}
	}
	if len(resp.Metrics.Counters) == 0 {
		t.Error("response metrics empty; want the request's engine counters")
	}
	if len(resp.Metrics.Histograms) != 0 {
		t.Error("response metrics include histograms; durations must stay out of payloads")
	}
}

// TestSimulateOptions covers the timeline and per-branch flags.
func TestSimulateOptions(t *testing.T) {
	_, ts := newTestServer(t, nil)
	status, b := post(t, ts, "/v1/simulate", v1.SimulateRequest{
		Trace:      v1.TraceRef{Workload: "gcc"},
		Specs:      []string{"gshare:10"},
		BucketSize: 500,
		PerBranch:  true,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, b)
	}
	resp := mustDecode[v1.SimulateResponse](t, b)
	r := resp.Results[0]
	if len(r.Timeline) != 3 { // ceil(1500/500)
		t.Errorf("timeline has %d buckets, want 3", len(r.Timeline))
	}
	if len(r.PerBranch) == 0 {
		t.Fatal("per-branch accounting missing")
	}
	var sum int64
	for _, acc := range r.PerBranch {
		sum += acc.Total
	}
	if sum != int64(testN) {
		t.Errorf("per-branch totals sum to %d, want %d", sum, testN)
	}
}

// TestSweepEndpoint checks both an axis family and the specs family
// against direct engine runs.
func TestSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	status, b := post(t, ts, "/v1/sweep", v1.SweepRequest{
		Trace: v1.TraceRef{Workload: "gcc"},
		Grid:  v1.GridSpec{Family: "gshare-hist", Hist: []uint{4, 8, 12}},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, b)
	}
	resp := mustDecode[v1.SweepResponse](t, b)

	w, _ := workloads.ByName("gcc")
	tr := w.Generate(testN)
	want := sim.SimulateSweep(tr, bp.NewGshareSweep([]uint{4, 8, 12}), sim.Options{})
	if resp.Grid != want.Grid || resp.Total != int64(want.Total) {
		t.Errorf("grid/total = %s/%d, want %s/%d", resp.Grid, resp.Total, want.Grid, want.Total)
	}
	if len(resp.Configs) != len(want.Configs) {
		t.Fatalf("got %d configs, want %d", len(resp.Configs), len(want.Configs))
	}
	for i, c := range resp.Configs {
		if c.Name != want.Configs[i] || c.Correct != want.Correct[i] {
			t.Errorf("config %d = %+v, want %s/%d", i, c, want.Configs[i], want.Correct[i])
		}
	}

	status, b = post(t, ts, "/v1/sweep", v1.SweepRequest{
		Trace: v1.TraceRef{Workload: "gcc"},
		Grid:  v1.GridSpec{Family: "specs", Specs: []string{"gshare:6", "bimodal:8"}},
	})
	if status != http.StatusOK {
		t.Fatalf("specs family status %d, body %s", status, b)
	}
	sr := mustDecode[v1.SweepResponse](t, b)
	if len(sr.Configs) != 2 || !strings.HasPrefix(sr.Grid, "specs(") {
		t.Errorf("specs sweep = grid %q with %d configs", sr.Grid, len(sr.Configs))
	}
}

// TestOracleEndpoint checks both stages against direct oracle runs.
func TestOracleEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	w, _ := workloads.ByName("gcc")
	tr := w.Generate(testN)

	status, b := post(t, ts, "/v1/oracle", v1.OracleRequest{
		Trace: v1.TraceRef{Workload: "gcc"},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, b)
	}
	resp := mustDecode[v1.OracleResponse](t, b)
	if len(resp.Sizes) != core.MaxSelectiveRefs || len(resp.Candidates) != 0 {
		t.Fatalf("full run: %d sizes, %d candidate beams", len(resp.Sizes), len(resp.Candidates))
	}
	want := core.Oracle(tr, core.OracleOptions{})
	for _, a := range resp.Sizes {
		if len(a.Branches) != len(want.BySize[a.Size]) {
			t.Errorf("size %d has %d branches, want %d", a.Size, len(a.Branches), len(want.BySize[a.Size]))
		}
	}

	status, b = post(t, ts, "/v1/oracle", v1.OracleRequest{
		Trace: v1.TraceRef{Workload: "gcc"},
		Stage: "profile",
	})
	if status != http.StatusOK {
		t.Fatalf("profile status %d, body %s", status, b)
	}
	prof := mustDecode[v1.OracleResponse](t, b)
	wantProf := core.Oracle(tr, core.OracleOptions{Stage: core.StageProfile})
	if len(prof.Candidates) != len(wantProf.Candidates) || len(prof.Sizes) != 0 {
		t.Errorf("profile run: %d beams (want %d), %d sizes", len(prof.Candidates), len(wantProf.Candidates), len(prof.Sizes))
	}
}

// TestClassifyEndpoint checks the classification payload against a
// direct run.
func TestClassifyEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	status, b := post(t, ts, "/v1/classify", v1.ClassifyRequest{
		Trace: v1.TraceRef{Workload: "gcc"},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, b)
	}
	resp := mustDecode[v1.ClassifyResponse](t, b)

	w, _ := workloads.ByName("gcc")
	p := core.ClassifyPerAddress(w.Generate(testN), core.ClassifyConfig{})
	wantShares := v1.NewClassShares(p)
	if len(resp.Classes) != len(wantShares) {
		t.Fatalf("got %d classes, want %d", len(resp.Classes), len(wantShares))
	}
	for i, c := range resp.Classes {
		if c != wantShares[i] {
			t.Errorf("class %d = %+v, want %+v", i, c, wantShares[i])
		}
	}
	if resp.StaticHighBiasFrac != p.StaticHighBiasFrac() {
		t.Errorf("static high-bias frac = %g, want %g", resp.StaticHighBiasFrac, p.StaticHighBiasFrac())
	}
}

// TestUploadDedupe pins content addressing: the same trace uploaded as
// BTR1 and as BPK1 (and twice) lands on one key with byte-identical
// responses, and the key is then usable as a trace ref.
func TestUploadDedupe(t *testing.T) {
	s, ts := newTestServer(t, nil)
	w, _ := workloads.ByName("xlisp")
	tr := w.Generate(800)

	var btr bytes.Buffer
	if err := tr.Write(&btr); err != nil {
		t.Fatal(err)
	}
	upload := func(body []byte) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}

	status, first := upload(btr.Bytes())
	if status != http.StatusOK {
		t.Fatalf("upload status %d, body %s", status, first)
	}
	up := mustDecode[v1.UploadResponse](t, first)
	if up.Branches != 800 || up.Key == "" {
		t.Fatalf("upload response %+v", up)
	}

	// Re-upload: identical response, no second store entry.
	status, second := upload(btr.Bytes())
	if status != http.StatusOK || !bytes.Equal(first, second) {
		t.Errorf("re-upload: status %d, payload diverged:\n%s\n%s", status, first, second)
	}

	// The BPK1 canonical form maps to the same key.
	pt, key, err := decodeUpload(btr.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if key != up.Key {
		t.Errorf("decodeUpload key %q != wire key %q", key, up.Key)
	}
	if err := s.store.PutPacked("tmp-reencode", pt); err != nil {
		t.Fatal(err)
	}
	bpkBytes, err := os.ReadFile(s.store.Path("tmp-reencode"))
	if err != nil {
		t.Fatal(err)
	}
	status, third := upload(bpkBytes)
	if status != http.StatusOK || !bytes.Equal(first, third) {
		t.Errorf("BPK1 upload: status %d, payload diverged from BTR1 upload", status)
	}

	// The key resolves as a trace ref.
	status, b := post(t, ts, "/v1/simulate", v1.SimulateRequest{
		Trace: v1.TraceRef{Key: up.Key},
		Specs: []string{"bimodal:8"},
	})
	if status != http.StatusOK {
		t.Fatalf("simulate over uploaded trace: status %d, body %s", status, b)
	}
	sr := mustDecode[v1.SimulateResponse](t, b)
	if sr.Trace.Key != up.Key || sr.Trace.Branches != 800 {
		t.Errorf("uploaded-trace info = %+v", sr.Trace)
	}

	// Garbage magic is rejected.
	if status, _ := upload([]byte("nope")); status != http.StatusBadRequest {
		t.Errorf("bad magic: status %d, want 400", status)
	}
}

// TestUploadTooLarge pins the upload size gate.
func TestUploadTooLarge(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxUploadBytes = 128 })
	body := make([]byte, 256)
	copy(body, "BTR1")
	resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413", resp.StatusCode)
	}
	var er v1.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != "too-large" {
		t.Errorf("code %q, want too-large", er.Error.Code)
	}
}

// TestErrorMapping covers the wire error codes end to end.
func TestErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name   string
		path   string
		body   string
		status int
		code   string
	}{
		{"unknown field", "/v1/simulate", `{"trace":{"workload":"gcc"},"specs":["gshare:8"],"bogus":1}`, 400, "bad-request"},
		{"trailing data", "/v1/simulate", `{"trace":{"workload":"gcc"},"specs":["gshare:8"]}{}`, 400, "bad-request"},
		{"empty trace ref", "/v1/simulate", `{"specs":["gshare:8"]}`, 400, "bad-request"},
		{"unknown workload", "/v1/simulate", `{"trace":{"workload":"nope"},"specs":["gshare:8"]}`, 400, "bad-request"},
		{"unknown predictor", "/v1/simulate", `{"trace":{"workload":"gcc"},"specs":["wizard:8"]}`, 400, "unknown-name"},
		{"bad param", "/v1/simulate", `{"trace":{"workload":"gcc"},"specs":["gshare:zap"]}`, 400, "bad-param"},
		{"missing trace", "/v1/simulate", `{"trace":{"key":"` + strings.Repeat("feed", 16) + `"},"specs":["gshare:8"]}`, 404, "not-found"},
		{"malformed key", "/v1/simulate", `{"trace":{"key":"feedfeed"},"specs":["gshare:8"]}`, 400, "bad-request"},
		{"traversal key", "/v1/simulate", `{"trace":{"key":"../../../../etc/passwd"},"specs":["gshare:8"]}`, 400, "bad-request"},
		{"oversized trace", "/v1/simulate", `{"trace":{"workload":"gcc","n":999999999},"specs":["gshare:8"]}`, 413, "too-large"},
		{"unknown grid family", "/v1/sweep", `{"trace":{"workload":"gcc"},"grid":{"family":"nope"}}`, 400, "bad-request"},
		{"empty grid axis", "/v1/sweep", `{"trace":{"workload":"gcc"},"grid":{"family":"gshare-hist"}}`, 400, "bad-request"},
		{"grid guard panic", "/v1/sweep", `{"trace":{"workload":"gcc"},"grid":{"family":"gshare-hist","hist":[60]}}`, 400, "bad-param"},
		{"oversized grid", "/v1/sweep", `{"trace":{"workload":"gcc"},"grid":{"family":"bimodal-size","table":[30,29]}}`, 413, "too-large"},
		{"oracle topk", "/v1/oracle", `{"trace":{"workload":"gcc"},"top_k":33}`, 400, "bad-request"},
		{"oracle stage", "/v1/oracle", `{"trace":{"workload":"gcc"},"stage":"select"}`, 400, "bad-request"},
		{"oracle scheme", "/v1/oracle", `{"trace":{"workload":"gcc"},"schemes":["sideways"]}`, 400, "bad-request"},
		{"classify bias", "/v1/classify", `{"trace":{"workload":"gcc"},"high_bias":1.5}`, 400, "bad-request"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var er v1.ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != c.status || er.Error.Code != c.code {
				t.Errorf("got %d/%q (%s), want %d/%q", resp.StatusCode, er.Error.Code, er.Error.Message, c.status, c.code)
			}
		})
	}
}

// TestBuildGridBudget pins the per-request memory bound on sweep grids:
// a dense-table grid whose summed counter entries exceed
// maxGridCounters is rejected as too-large before any table is built.
func TestBuildGridBudget(t *testing.T) {
	for name, g := range map[string]v1.GridSpec{
		"bimodal": {Family: "bimodal-size", Table: []uint{30, 29}},
		"gshare":  {Family: "gshare-hist", Hist: []uint{26, 26, 20}},
		"hybrid":  {Family: "hybrid", Hist: []uint{20}, BimodalBits: 27},
		"chooser": {Family: "hybrid", Hist: make64(8), ChooserBits: 22},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := buildGrid(g, nil)
		runtime.ReadMemStats(&after)
		var re *reqError
		if !errors.As(err, &re) || re.code != "too-large" {
			t.Errorf("%s: err %v, want too-large", name, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
			t.Errorf("%s: rejected grid allocated %d bytes", name, d)
		}
	}
}

// make64 returns a 64-entry axis of b-bit values, the axis length limit.
func make64(b uint) []uint {
	out := make([]uint, 64)
	for i := range out {
		out[i] = b
	}
	return out
}

// TestComputeDetachedFromCaller pins the single-flight context fix: a
// flight started by an already-canceled request still completes, so
// waiters coalesced on the key never inherit the first caller's abort.
func TestComputeDetachedFromCaller(t *testing.T) {
	s, _ := newTestServer(t, nil)
	rt, err := s.resolve(v1.TraceRef{Workload: "gcc"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone when the flight starts
	b, err := s.compute(ctx, "simulate", rt, "test|detached", func(reg *obs.Registry) (any, error) {
		return map[string]string{"ok": "yes"}, nil
	})
	if err != nil {
		t.Fatalf("canceled caller poisoned the flight: %v", err)
	}
	if len(b) == 0 {
		t.Fatal("empty payload")
	}
}

// TestAdmitCanceledCode checks a client abort while queued maps to the
// canceled wire code, not internal.
func TestAdmitCanceledCode(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.Workers = 1 })
	s.sem <- struct{}{} // occupy the only slot
	defer func() { <-s.sem }()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.admit(ctx)
	var re *reqError
	if !errors.As(err, &re) || re.code != "canceled" {
		t.Fatalf("admit under canceled ctx = %v, want canceled code", err)
	}
	if httpStatus("canceled") != statusClientClosedRequest {
		t.Errorf("canceled maps to %d, want %d", httpStatus("canceled"), statusClientClosedRequest)
	}
}

// TestNegativeConfigClamped pins withDefaults clamping: negative
// budgets and capacities select the defaults instead of panicking in
// make(chan) or the cache eviction loop.
func TestNegativeConfigClamped(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Workers = -1
		c.SimParallel = -2
		c.CacheEntries = -3
		c.TraceEntries = -4
		c.MaxUploadBytes = -5
	})
	for i := 0; i < 3; i++ { // exercise cache puts past any tiny cap
		status, b := post(t, ts, "/v1/simulate", v1.SimulateRequest{
			Trace: v1.TraceRef{Workload: "gcc"},
			Specs: []string{fmt.Sprintf("gshare:%d", 6+i)},
		})
		if status != http.StatusOK {
			t.Fatalf("status %d, body %s", status, b)
		}
	}
}

// TestHealthAndMetrics covers the two GET endpoints.
func TestHealthAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}

	// Drive one request so the process registry has content.
	post(t, ts, "/v1/simulate", v1.SimulateRequest{Trace: v1.TraceRef{Workload: "gcc"}, Specs: []string{"gshare:8"}})
	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["service.requests.simulate"] < 1 {
		t.Errorf("process metrics missing request counters: %v", snap.Counters)
	}
	// The request's engine metrics were merged into the process registry.
	if snap.Counters["sim.predictions"] == 0 && snap.Counters["sim.records"] == 0 {
		found := false
		for name := range snap.Counters {
			if strings.HasPrefix(name, "sim.") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no sim.* counters merged into the process registry: %v", snap.Counters)
		}
	}
}
