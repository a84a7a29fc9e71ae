// Command bpload drives a running bpsimd with a deterministic mixed
// workload and reports throughput — and, in -differential mode, proves
// the service's determinism contract from the outside: every payload
// fetched under concurrency must be byte-identical to the same request
// replayed sequentially.
//
// Usage:
//
//	bpload -url http://localhost:8149 -repeat 4 -parallel 8
//	bpload -url http://localhost:8149 -differential   # exit 1 on any deviation
//
// The request mix (simulate, sweep, oracle, classify across several
// workloads, with deliberate duplicates so the payload cache's
// single-flight path is exercised mid-burst) is fixed; ordering is
// shuffled by a seeded local PRNG, so the same flags always issue the
// same byte-for-byte request stream.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"

	"branchcorr/internal/obs"
)

// request is one canned API call.
type request struct {
	Path string `json:"path"`
	Body string `json:"body"`
}

// mix builds the canned request set: every compute endpoint, several
// workloads, overlapping duplicates, and equivalent spellings that must
// collapse onto one cache entry. n is the workload trace length (kept
// explicit so runs against different server -default-n settings stay
// comparable).
func mix(n int) []request {
	var reqs []request
	add := func(path, body string) { reqs = append(reqs, request{path, body}) }
	tr := func(wl string) string { return fmt.Sprintf(`{"workload":%q,"n":%d}`, wl, n) }
	for _, wl := range []string{"gcc", "compress", "xlisp", "go"} {
		add("/v1/simulate", fmt.Sprintf(`{"trace":%s,"specs":["gshare:8","bimodal:8"]}`, tr(wl)))
		add("/v1/simulate", fmt.Sprintf(`{"trace":%s,"specs":["gshare:8","bimodal:8"]}`, tr(wl)))   // dup
		add("/v1/simulate", fmt.Sprintf(`{"trace":%s,"specs":["gshare:010","bimodal:8"]}`, tr(wl))) // equivalent spelling
		add("/v1/sweep", fmt.Sprintf(`{"trace":%s,"grid":{"family":"gshare-hist","hist":[4,6,8]}}`, tr(wl)))
		add("/v1/classify", fmt.Sprintf(`{"trace":%s}`, tr(wl)))
	}
	add("/v1/oracle", fmt.Sprintf(`{"trace":%s,"window_len":8,"top_k":8}`, tr("gcc")))
	add("/v1/oracle", fmt.Sprintf(`{"trace":%s,"window_len":8,"top_k":8,"stage":"profile"}`, tr("gcc")))
	add("/v1/sweep", fmt.Sprintf(`{"trace":%s,"grid":{"family":"specs","specs":["gshare:6","pas:4,4,6"]}}`, tr("compress")))
	add("/v1/simulate", fmt.Sprintf(`{"trace":%s,"specs":["gshare:8"],"per_branch":true}`, tr("xlisp")))
	return reqs
}

// xorshift64 is a tiny local PRNG: the load mix must be reproducible
// from the seed alone, so bpload never touches the global rand source.
type xorshift64 struct{ s uint64 }

func (r *xorshift64) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// shuffle is a seeded Fisher–Yates over the request stream.
func shuffle(reqs []request, seed uint64) {
	r := xorshift64{s: seed | 1}
	for i := len(reqs) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		reqs[i], reqs[j] = reqs[j], reqs[i]
	}
}

// report is bpload's JSON output.
type report struct {
	URL        string  `json:"url"`
	Requests   int     `json:"requests"`
	Parallel   int     `json:"parallel"`
	Failures   int     `json:"failures"`
	Bytes      int64   `json:"bytes"`
	WallNs     int64   `json:"wall_ns"`
	ReqPerSec  float64 `json:"req_per_sec"`
	Mismatches int     `json:"mismatches,omitempty"`
}

func main() {
	var (
		baseURL      = flag.String("url", "http://localhost:8149", "bpsimd base URL")
		repeat       = flag.Int("repeat", 1, "times to replay the mixed request set")
		parallel     = flag.Int("parallel", 4, "concurrent client goroutines")
		seed         = flag.Uint64("seed", 1, "PRNG seed for the request-order shuffle")
		n            = flag.Int("n", 100_000, "workload trace length named in every request")
		differential = flag.Bool("differential", false, "replay the set sequentially first and fail on any byte deviation under concurrency")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q (all options are flags)", flag.Arg(0)))
	}
	if *repeat < 1 || *parallel < 1 {
		fatal(fmt.Errorf("-repeat and -parallel must be at least 1"))
	}

	reqs := make([]request, 0, *repeat*len(mix(*n)))
	for i := 0; i < *repeat; i++ {
		reqs = append(reqs, mix(*n)...)
	}
	shuffle(reqs, *seed)

	// Reference pass: in differential mode every request is first issued
	// sequentially; the concurrent pass below must reproduce these bytes
	// exactly. Reference latency is excluded from the report.
	var want map[request][]byte
	if *differential {
		want = make(map[request][]byte, len(reqs))
		for _, rq := range reqs {
			if _, ok := want[rq]; ok {
				continue
			}
			body, err := issue(*baseURL, rq)
			if err != nil {
				fatal(fmt.Errorf("reference pass: %s: %w", rq.Path, err))
			}
			want[rq] = body
		}
	}

	var (
		mu         sync.Mutex
		failures   int
		mismatches int
		totalBytes int64
	)
	next := make(chan request)
	var wg sync.WaitGroup
	start := obs.SystemClock()
	for i := 0; i < *parallel; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rq := range next {
				body, err := issue(*baseURL, rq)
				mu.Lock()
				if err != nil {
					failures++
					fmt.Fprintf(os.Stderr, "bpload: %s: %v\n", rq.Path, err)
				} else {
					totalBytes += int64(len(body))
					if want != nil && !bytes.Equal(body, want[rq]) {
						mismatches++
						fmt.Fprintf(os.Stderr, "bpload: DETERMINISM VIOLATION %s %s\n", rq.Path, rq.Body)
					}
				}
				mu.Unlock()
			}
		}()
	}
	for _, rq := range reqs {
		next <- rq
	}
	close(next)
	wg.Wait()
	wall := obs.SystemClock() - start

	rep := report{
		URL:        *baseURL,
		Requests:   len(reqs),
		Parallel:   *parallel,
		Failures:   failures,
		Bytes:      totalBytes,
		WallNs:     wall,
		Mismatches: mismatches,
	}
	if wall > 0 {
		rep.ReqPerSec = float64(len(reqs)) / (float64(wall) / 1e9)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if _, err := os.Stdout.Write(append(out, '\n')); err != nil {
		fatal(err)
	}
	if failures > 0 || mismatches > 0 {
		os.Exit(1)
	}
}

// issue POSTs one request and returns the response body; non-200
// statuses are errors carrying the server's error payload.
func issue(baseURL string, rq request) ([]byte, error) {
	resp, err := http.Post(baseURL+rq.Path, "application/json", bytes.NewReader([]byte(rq.Body)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bpload:", err)
	os.Exit(1)
}
