package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	v1 "branchcorr/internal/api/v1"
	"branchcorr/internal/obs"
)

// The serve workload drives a bpsimd child process, started with its
// default flags plus an address, a corpus and a metrics file, from this
// process over serveConns connections, closed loop: each connection
// sends its next request as soon as the last one completes. A run
// drains a number of fixed-size seeded request streams (drains; see
// drainMix) and times each.
const (
	// serveConns is the connection budget: the benchmark machine's two
	// cores.
	serveConns = 2
	// serveSetups is how many times a run boots and warms a server, so
	// setup_s is a median of several; the last server is the one
	// measured.
	serveSetups = 9
	// drainSeconds is about how long one drain and its share of the
	// checks take on the benchmark machine. A run makes
	// --seconds/drainSeconds drains (at least one): a count fixed by
	// the run length, so every run's medians have the same samples.
	drainSeconds = 5
)

// runServe is the serve workload, end-to-end or traced.
func runServe(e *env) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	drains := max(1, int(e.seconds/drainSeconds))
	e.stamp["conns"] = serveConns
	e.stamp["drains"] = drains
	e.stamp["drain_requests"] = drainLen()

	// The calibration warm-up comes first so the set-ups, too, run on
	// busy cores.
	cal := &calibratedRun{}
	cal.warm()
	var setups []float64
	var srv *server
	for k := 0; k < serveSetups; k++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if srv, err = startServer(e, fmt.Sprint(k)); err != nil {
			return nil, err
		}
		defer srv.kill()
		if err := srv.warm(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// wall_s is the time to drain one stream; cpu_s is bpsimd's CPU
	// time over it.
	gen := newStreamGen(e.seed)
	all := &drainLog{}
	var walls, cpus []float64
	cal.point()
	for k := 0; k < drains; k++ {
		reqs := gen.drain()
		c0, err := procCPU(srv.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res := runClosedLoop(reqs, serveConns, srv.post)
		walls = append(walls, time.Since(t0).Seconds())
		c1, err := procCPU(srv.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		cpus = append(cpus, (c1 - c0).Seconds())
		all.add(reqs, res)
		cal.point()
	}
	metricsFile := srv.metricsPath
	rss, err := srv.stopRSS()
	if err != nil {
		return nil, err
	}

	// Checks: every payload decodes strictly and re-marshals to its
	// own bytes, uploads return the content address computed here, and
	// every distinct request, replayed sequentially on a fresh server,
	// returns the bytes it got under load.
	codec := &codecTimes{}
	for i := range all.reqs {
		out.attempted++
		if err := checkResult(all.reqs[i], all.res[i], codec); err != nil {
			out.failed++
			if out.failed <= 5 {
				out.fail("%s: %v", all.reqs[i].path(), err)
			}
		}
	}
	if out.failed > 5 {
		out.fail("%d failed requests in all", out.failed)
	}
	ref, err := startServer(e, "replay")
	if err != nil {
		return nil, err
	}
	defer ref.kill()
	t0 := time.Now()
	mismatches := ref.replay(all)
	replayed := time.Since(t0)
	if err := ref.stop(); err != nil {
		return nil, err
	}
	if mismatches > 0 {
		out.failed += mismatches
		out.fail("%d payloads differ from their sequential replay", mismatches)
	}

	lat := summarize(all.latenciesMs(""))
	e.stamp["calib_s"] = round3(durationsSeconds(cal.rounds))
	out.note("drains: %d of %d requests over %d connections, raw wall_s %v, raw cpu_s %v, raw setup_s %v",
		drains, drainLen(), serveConns, round3(walls), round3(cpus), round3(setups))
	out.note("latency: %d requests, p50 %.3f ms, p%g %.3f ms; sequential replay of %d distinct requests on a fresh server %.3fs",
		lat.N, lat.P50, lat.TailPct, lat.Tail, len(all.distinct()), replayed.Seconds())

	if e.traced {
		return out, serveLayers(out, metricsFile, all, codec)
	}
	m := out.metrics
	scale := cal.scale()
	m["setup_s"] = median(setups) * scale
	m["wall_s"] = median(walls) * scale
	m["cpu_s"] = median(cpus) * scale
	m["peak_rss_mb"] = rss
	return out, nil
}

// serveLayers fills the serve per-layer metrics from bpsimd's metrics
// snapshot and the client-side timings.
func serveLayers(out *outcome, metricsFile string, all *drainLog, codec *codecTimes) error {
	raw, err := os.ReadFile(metricsFile)
	if err != nil {
		return fmt.Errorf("bpsimd metrics: %w", err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("bpsimd metrics: %w", err)
	}
	m, c := out.metrics, snap.Counters
	engineLayers(m, c, snap.Histograms)
	m["service.cache.hit_frac"] = ratio(c["service.cache.hits"], c["service.cache.hits"]+c["service.cache.misses"])
	m["service.queue.max"] = float64(snap.Gauges["service.queue"])
	for _, code := range errorCodes {
		m["service.errors."+code] = float64(c["service.errors."+code])
	}
	for _, ep := range serviceEndpoints {
		s := summarize(all.latenciesMs(ep))
		m["service."+ep+".p50_ms"] = s.P50
		m["service."+ep+".p99_ms"] = s.Tail
		out.note("service.%s: %d samples, p50 %.3f ms, p%g %.3f ms", ep, s.N, s.P50, s.TailPct, s.Tail)
	}
	m["v1.decode_s"] = codec.decode.Seconds()
	m["v1.marshal_s"] = codec.marshal.Seconds()
	// bpsimd always runs with its clock installed and the client times
	// every request in both modes, so the traced serve run adds no
	// instrumentation: its overhead is zero by construction.
	m["trace.overhead_s"] = 0
	out.note("serve counters: %s", countersLine(c, "service.", "corpus.", "trace.pack.builds", "core.oracle.builds"))
	return nil
}

func countersLine(c map[string]int64, prefixes ...string) string {
	var parts []string
	for name, v := range c {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				parts = append(parts, fmt.Sprintf("%s=%d", name, v))
				break
			}
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// server is a running bpsimd child.
type server struct {
	cmd         *exec.Cmd
	base        string
	metricsPath string
	client      *http.Client
	stderr      *lockedBuffer
	waitErr     chan error
	stopped     bool
}

// lockedBuffer collects the child's stderr for error messages.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) add(line string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.buf.Len() < 1<<16 {
		b.buf.WriteString(line + "\n")
	}
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startServer boots bpsimd on a free loopback port with a fresh corpus
// and returns once it has announced that the port is live.
func startServer(e *env, name string) (*server, error) {
	dir := filepath.Join(e.work, "serve-corpus-"+name)
	s := &server{
		metricsPath: filepath.Join(e.work, "bpsimd-metrics-"+name+".json"),
		stderr:      &lockedBuffer{},
		waitErr:     make(chan error, 1),
	}
	s.cmd = exec.Command(filepath.Join(e.bin, "bpsimd"), "-addr", "127.0.0.1:0", "-corpus", dir, "-metrics", s.metricsPath)
	pipe, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start bpsimd: %w", err)
	}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			s.stderr.add(line)
			if _, addr, ok := strings.Cut(line, "serving v1 API on "); ok && !announced {
				announced = true
				ready <- strings.TrimSuffix(addr, "/")
			}
		}
		close(ready)
		s.waitErr <- s.cmd.Wait()
	}()
	select {
	case addr, ok := <-ready:
		if !ok {
			return nil, fmt.Errorf("bpsimd exited before serving: %s", s.stderr.String())
		}
		s.base = addr
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, errors.New("bpsimd did not announce readiness within 60s")
	}
	s.client = &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
			DisableCompression:  true,
		},
		Timeout: 120 * time.Second,
	}
	return s, nil
}

// stop sends SIGTERM and waits for the process to exit.
func (s *server) stop() error {
	_, err := s.stopRSS()
	return err
}

// stopRSS stops the server and returns its peak resident set size in
// MiB.
func (s *server) stopRSS() (float64, error) {
	if s.stopped {
		return 0, nil
	}
	s.stopped = true
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	select {
	case err := <-s.waitErr:
		if err != nil {
			return 0, fmt.Errorf("bpsimd: %w: %s", err, s.stderr.String())
		}
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.waitErr
		return 0, errors.New("bpsimd did not stop within 30s of SIGTERM")
	}
	ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("bpsimd: no resource usage")
	}
	return float64(ru.Maxrss) / 1024, nil
}

// kill stops a server still running on an error path.
func (s *server) kill() {
	if s.stopped {
		return
	}
	s.stopped = true
	_ = s.cmd.Process.Kill()
	<-s.waitErr
}

// post sends one request and reads the whole response.
func (s *server) post(p *planned) (int, []byte, error) {
	ctype := "application/json"
	if p.kind == "traces" {
		ctype = "application/octet-stream"
	}
	resp, err := s.client.Post(s.base+p.path(), ctype, bytes.NewReader(p.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// warm fills the corpus with every trace the stream names and the
// payload cache with the hot set, one request at a time.
func (s *server) warm() error {
	for _, p := range warmupRequests() {
		status, body, err := s.post(p)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", p.path(), status, bytes.TrimSpace(body))
		}
	}
	return nil
}

// result is one request's fate under load.
type result struct {
	sample
	status int
	body   []byte
	err    error
}

// runClosedLoop issues reqs over conns concurrent senders, each taking
// the next request as soon as its last one completes, and returns every
// request's result. A request that simulates an upload by key waits for
// that upload's response first.
func runClosedLoop(reqs []*planned, conns int, send func(*planned) (int, []byte, error)) []result {
	res := make([]result, len(reqs))
	done := make([]chan struct{}, len(reqs))
	for i, p := range reqs {
		if p.kind == "traces" {
			done[i] = make(chan struct{})
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				p := reqs[i]
				if p.dep >= 0 {
					<-done[p.dep]
				}
				r := result{sample: sample{Sent: time.Since(start)}}
				r.status, r.body, r.err = send(p)
				r.Done = time.Since(start)
				res[i] = r
				if done[i] != nil {
					close(done[i])
				}
			}
		}()
	}
	wg.Wait()
	return res
}

// drainLog accumulates requests and their results.
type drainLog struct {
	reqs []*planned
	res  []result
}

func (l *drainLog) add(reqs []*planned, res []result) {
	l.reqs = append(l.reqs, reqs...)
	l.res = append(l.res, res...)
}

// latenciesMs returns the latencies of one endpoint's requests, or all,
// in milliseconds.
func (l *drainLog) latenciesMs(kind string) []float64 {
	var out []float64
	for i, r := range l.res {
		if kind == "" || l.reqs[i].kind == kind {
			out = append(out, float64(r.Latency())/1e6)
		}
	}
	return out
}

// distinct returns the index of each distinct request's first
// occurrence, in stream order.
func (l *drainLog) distinct() []int {
	seen := map[string]bool{}
	var out []int
	for i, p := range l.reqs {
		if k := p.key(); !seen[k] {
			seen[k] = true
			out = append(out, i)
		}
	}
	return out
}

// replay issues each distinct request of the log once, sequentially,
// and counts served payloads that differ from the replayed bytes.
func (s *server) replay(l *drainLog) int {
	want := map[string][]byte{}
	mismatches := 0
	for _, i := range l.distinct() {
		p := l.reqs[i]
		status, body, err := s.post(p)
		if err != nil || status != http.StatusOK {
			mismatches++
			continue
		}
		want[p.key()] = body
	}
	for i, p := range l.reqs {
		r := l.res[i]
		if r.err != nil || r.status != http.StatusOK {
			continue // already counted as failed
		}
		if w, ok := want[p.key()]; ok && !bytes.Equal(w, r.body) {
			mismatches++
		}
	}
	return mismatches
}

// codecTimes accumulates the client's v1 decode and marshal time.
type codecTimes struct{ decode, marshal time.Duration }

// checkResult checks one served response: a 200, a payload that
// v1.DecodeStrict accepts into its endpoint's response type and that
// v1.Marshal reproduces byte for byte, and for uploads the content
// address computed locally.
func checkResult(p *planned, r result, codec *codecTimes) error {
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	var v any
	switch p.kind {
	case "simulate":
		v = &v1.SimulateResponse{}
	case "sweep":
		v = &v1.SweepResponse{}
	case "oracle":
		v = &v1.OracleResponse{}
	case "classify":
		v = &v1.ClassifyResponse{}
	case "traces":
		v = &v1.UploadResponse{}
	}
	t0 := time.Now()
	err := v1.DecodeStrict(bytes.NewReader(r.body), v)
	codec.decode += time.Since(t0)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	t0 = time.Now()
	again, err := v1.Marshal(v)
	codec.marshal += time.Since(t0)
	if err != nil {
		return fmt.Errorf("marshal: %w", err)
	}
	if !bytes.Equal(again, r.body) {
		return errors.New("payload does not re-marshal to its own bytes")
	}
	if up, ok := v.(*v1.UploadResponse); ok && up.Key != p.uploadKey {
		return fmt.Errorf("upload key %s, want content address %s", up.Key, p.uploadKey)
	}
	return nil
}

// procCPU returns a process's user+system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name: state is field 3,
	// utime 14 and stime 15, in clock ticks of 1/100 s.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}
