package main

import (
	"bytes"
	"math"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	if _, ok := tailPercentile(19); ok {
		t.Fatal("19 samples cannot support a tail above the median")
	}
	for n, want := range map[int]float64{20: 50, 21: 52, 200: 95, 500: 98, 1000: 99, 50000: 99} {
		if p, ok := tailPercentile(n); !ok || p != want {
			t.Errorf("tailPercentile(%d) = %g, %t; want %g", n, p, ok, want)
		}
	}
	// The rule itself: at least ten samples lie beyond the chosen
	// nearest-rank percentile, and one whole percent higher would leave
	// fewer (unless the cap at 99 applies).
	beyond := func(n int, p float64) int {
		return n - int(math.Ceil(p/100*float64(n)))
	}
	for n := 20; n <= 3000; n++ {
		p, _ := tailPercentile(n)
		if b := beyond(n, p); b < 10 {
			t.Fatalf("n=%d p=%g leaves %d samples beyond", n, p, b)
		}
		if p < 99 && beyond(n, p+1) >= 10 {
			t.Fatalf("n=%d: p%g is not the highest percentile with ten beyond", n, p)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500.5 || s.TailPct != 99 || s.Tail != 990 {
		t.Fatalf("summarize(1..1000) = %+v", s)
	}
	if s := summarize([]float64{3, 1, 2}); s.TailPct != 100 || s.Tail != 3 || s.P50 != 2 {
		t.Fatalf("a sample too small for a tail reports its maximum: %+v", s)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "pass", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a: counted once
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past the parent: clipped
		{Name: "b.child", Parent: 2, Start: 25, End: 35},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20, 30 - 10, 30, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestClosedLoopDrain(t *testing.T) {
	const service = 5 * time.Millisecond
	reqs := make([]*planned, 40)
	for i := range reqs {
		reqs[i] = &planned{kind: "simulate", dep: -1}
	}
	var inFlight, most atomic.Int64
	send := func(*planned) (int, []byte, error) {
		n := inFlight.Add(1)
		for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
		}
		time.Sleep(service)
		inFlight.Add(-1)
		return http.StatusOK, nil, nil
	}
	t0 := time.Now()
	res := runClosedLoop(reqs, 2, send)
	wall := time.Since(t0)
	if len(res) != len(reqs) {
		t.Fatalf("drained %d of %d requests", len(res), len(reqs))
	}
	if most.Load() != 2 {
		t.Errorf("%d requests in flight at most, want the two connections' worth", most.Load())
	}
	// Two connections, 5 ms a request: 40 requests take about 100 ms.
	if wall < 20*service || wall > 60*service {
		t.Errorf("drain took %v, want about %v", wall, 20*service)
	}
	for i, r := range res {
		if r.status != http.StatusOK || r.Latency() < service || r.Latency() != r.Done-r.Sent {
			t.Fatalf("request %d: %+v, latency %v", i, r.sample, r.Latency())
		}
	}
}

func TestClosedLoopWaitsForUpload(t *testing.T) {
	reqs := []*planned{
		{kind: "traces", dep: -1},
		{kind: "simulate", dep: 0},
	}
	var uploaded atomic.Bool
	send := func(p *planned) (int, []byte, error) {
		if p.kind == "traces" {
			time.Sleep(10 * time.Millisecond)
			uploaded.Store(true)
			return http.StatusOK, nil, nil
		}
		if !uploaded.Load() {
			return http.StatusNotFound, nil, nil
		}
		return http.StatusOK, nil, nil
	}
	for _, r := range runClosedLoop(reqs, 2, send) {
		if r.status != http.StatusOK {
			t.Fatalf("a by-key request ran before its upload finished")
		}
	}
}

func TestDrainSeedDeterminism(t *testing.T) {
	draw := func(seed int64) [][]*planned {
		g := newStreamGen(seed)
		return [][]*planned{g.drain(), g.drain()}
	}
	a, b, c := draw(7), draw(7), draw(8)
	hot := map[string]bool{}
	for _, p := range hotSet() {
		hot[p.key()] = true
	}
	same, seen := 0, map[string]bool{}
	for d := range a {
		da, db, dc := a[d], b[d], c[d]
		if len(da) != drainLen() || len(db) != drainLen() || len(dc) != drainLen() {
			t.Fatalf("drain %d: %d, %d and %d requests, want %d", d, len(da), len(db), len(dc), drainLen())
		}
		kinds := map[string]int{}
		hits, byKey := 0, 0
		for i, p := range da {
			q := db[i]
			if p.kind != q.kind || !bytes.Equal(p.body, q.body) || p.dep != q.dep || p.uploadKey != q.uploadKey {
				t.Fatalf("drain %d request %d differs between two draws of seed 7", d, i)
			}
			if p.dep >= 0 && (p.dep >= i || da[p.dep].kind != "traces") {
				t.Fatalf("drain %d request %d depends on %d, which is not an earlier upload", d, i, p.dep)
			}
			kinds[p.kind]++
			switch {
			case hot[p.key()]:
				hits++
			case bytes.Contains(p.body, []byte(`{"key":`)):
				byKey++
			case p.kind != "oracle" && p.kind != "classify":
				if seen[p.key()] {
					t.Fatalf("drain %d request %d repeats a fresh request", d, i)
				}
				seen[p.key()] = true
			}
			if bytes.Equal(p.body, dc[i].body) {
				same++
			}
		}
		// The mix is fixed: only order and content depend on the seed.
		if hits != drainMix.hot || kinds["traces"] != drainMix.upload || byKey != drainMix.byKey ||
			kinds["oracle"]+kinds["classify"] != drainMix.small {
			t.Fatalf("drain %d mix: %d hot, %d uploads, %d by key, %v", d, hits, kinds["traces"], byKey, kinds)
		}
		for _, k := range serviceEndpoints {
			if kinds[k] == 0 {
				t.Errorf("drain %d has no %s requests: %v", d, k, kinds)
			}
		}
	}
	if same == 2*drainLen() {
		t.Fatal("seeds 7 and 8 draw the same drains")
	}
}

func TestLengthOffset(t *testing.T) {
	seen := map[int]bool{}
	for seed := int64(-20); seed < 200; seed++ {
		off := lengthOffset(seed)
		if off != lengthOffset(seed) {
			t.Fatalf("seed %d: offset not deterministic", seed)
		}
		if off < 0 || off >= 64*lengthOffsets || off%64 != 0 {
			t.Fatalf("seed %d: offset %d outside the pinned set", seed, off)
		}
		seen[off] = true
	}
	if len(seen) != lengthOffsets {
		t.Fatalf("seeds reach %d of %d offsets", len(seen), lengthOffsets)
	}
}

func TestPinnedDigestsCoverEveryOffset(t *testing.T) {
	for _, b := range []batchSpec{reportSpec, predictorsSpec} {
		for k := 0; k < lengthOffsets; k++ {
			if _, ok := pinnedDigests[digestKey(b.name, b.n+64*k)]; !ok {
				t.Errorf("no pinned digest for %s", digestKey(b.name, b.n+64*k))
			}
		}
	}
}

func TestCalibratedRunScale(t *testing.T) {
	ms := func(xs ...int) []time.Duration {
		out := make([]time.Duration, len(xs))
		for i, x := range xs {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	// One round caught at twice the time, as from idle, does not move
	// the median the run is scaled by.
	c := &calibratedRun{rounds: ms(240, 120, 120, 130, 120)}
	if got := c.scale(); math.Abs(got-calibRefSeconds/0.120) > 1e-12 {
		t.Fatalf("scale = %g, want %g", got, calibRefSeconds/0.120)
	}
	// A host twice as slow doubles the round, halving the scale that
	// its doubled raw times are multiplied by.
	slow := &calibratedRun{rounds: ms(240, 240, 250, 230, 240)}
	if raw, fast := 16.0, 8.0; math.Abs(raw*slow.scale()-fast*c.scale()) > 1e-9 {
		t.Fatalf("normalized %g on the slow host, %g on the fast one", raw*slow.scale(), fast*c.scale())
	}
}

func TestCalibWorkFixed(t *testing.T) {
	if a, b := calibWork(1), calibWork(1); a != b {
		t.Fatalf("calibWork(1) gave %d, then %d", a, b)
	}
}
