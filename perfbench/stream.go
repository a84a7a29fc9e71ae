package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"branchcorr/internal/corpus"
	"branchcorr/internal/trace"
	"branchcorr/internal/workloads"
)

// planned is one request of a drain.
type planned struct {
	kind string // endpoint: simulate, sweep, oracle, classify or traces
	body []byte
	// dep is the index, within the same drain, of the upload this
	// request simulates by key; -1 for none.
	dep int
	// uploadKey is the content address an upload must return.
	uploadKey string
}

func (p *planned) path() string { return "/v1/" + p.kind }

// key identifies a distinct request.
func (p *planned) key() string { return p.path() + "\x00" + string(p.body) }

// drainMix is how many requests of each class one drain holds. The
// counts are fixed, so every drain of every seed does the same mix of
// work; the seed sets their order and content.
var drainMix = struct{ hot, fresh, upload, byKey, small int }{
	// Repeats of the hot set, which fits the 256-entry payload cache:
	// replay, marshal and HTTP.
	hot: 4800,
	// Simulate/sweep requests never issued before, over freshLengths ×
	// all workloads — twice the 8-entry trace cache, so some decode
	// their trace from the corpus.
	fresh: 900,
	// Seeded BTR1 uploads (sniff, BPK1 encode, corpus put), and
	// simulations of an upload by its key.
	upload: 180,
	byKey:  60,
	// Oracle and classify at oracleN.
	small: 60,
}

// drainLen is the number of requests in one drain.
func drainLen() int {
	m := drainMix
	return m.hot + m.fresh + m.upload + m.byKey + m.small
}

// freshLengths are the two trace lengths of fresh requests.
var freshLengths = []int{30_000, 60_000}

// oracleN keeps oracle and classify requests small: at n=200k they
// take hundreds of milliseconds each.
const oracleN = 10_000

// hotWorkloads and hotN are the traces of the hot set.
var hotWorkloads = []string{"gcc", "go", "perl", "compress"}

const hotN = 30_000

func traceRef(workload string, n int) string {
	return fmt.Sprintf(`{"workload":%q,"n":%d}`, workload, n)
}

// hotSet is the fixed set of hot requests: 12 per hot trace.
func hotSet() []*planned {
	var out []*planned
	specs := []string{`"gshare:12","bimodal:12"`, `"gshare:16"`, `"pas:12,10,6"`, `"gas:10,6"`,
		`"bimodal:14","gshare:14"`, `"ifgshare:16"`, `"pas:10,10,6","gshare:10"`, `"bimodal:10"`}
	grids := []string{`{"family":"gshare-hist","hist":[8,12,16]}`, `{"family":"bimodal-size","table":[8,10,12,14]}`,
		`{"family":"gshare-hist","hist":[10,14,18,20]}`, `{"family":"if-gshare","hist":[8,12]}`}
	for _, w := range hotWorkloads {
		for _, s := range specs {
			out = append(out, &planned{kind: "simulate", dep: -1,
				body: []byte(fmt.Sprintf(`{"trace":%s,"specs":[%s]}`, traceRef(w, hotN), s))})
		}
		for _, g := range grids {
			out = append(out, &planned{kind: "sweep", dep: -1,
				body: []byte(fmt.Sprintf(`{"trace":%s,"grid":%s}`, traceRef(w, hotN), g))})
		}
	}
	return out
}

// warmupRequests put every trace the stream names into the corpus and
// the hot set into the payload cache.
func warmupRequests() []*planned {
	var out []*planned
	touch := func(w string, n int) {
		out = append(out, &planned{kind: "simulate", dep: -1,
			body: []byte(fmt.Sprintf(`{"trace":%s,"specs":["taken"]}`, traceRef(w, n)))})
	}
	for _, w := range workloads.Names() {
		for _, n := range freshLengths {
			touch(w, n)
		}
		touch(w, oracleN)
	}
	return append(out, hotSet()...)
}

// streamGen draws drains from one seeded source, so a seed fixes the
// order, fresh specs and upload content of every drain of a run.
type streamGen struct {
	rng     splitmix64
	hot     []*planned
	used    map[string]bool
	uploads []string // content addresses of uploads in earlier drains
	nUpload int
}

func newStreamGen(seed int64) *streamGen {
	g := &streamGen{rng: splitmix64{s: uint64(seed) ^ 0x5e7e}, hot: hotSet(), used: map[string]bool{}}
	for _, p := range append(warmupRequests(), g.hot...) {
		g.used[string(p.body)] = true // a fresh request must miss the cache
	}
	return g
}

// drain returns the next drain: drainMix's requests in seeded order.
func (g *streamGen) drain() []*planned {
	m := drainMix
	kinds := make([]string, 0, drainLen())
	for _, c := range []struct {
		kind string
		n    int
	}{{"hot", m.hot}, {"fresh", m.fresh}, {"upload", m.upload}, {"byKey", m.byKey}, {"small", m.small}} {
		for i := 0; i < c.n; i++ {
			kinds = append(kinds, c.kind)
		}
	}
	for i := len(kinds) - 1; i > 0; i-- {
		j := g.rng.intn(i + 1)
		kinds[i], kinds[j] = kinds[j], kinds[i]
	}
	// With no upload before it, a by-key request trades places with the
	// first upload after it.
	for i, k := range kinds {
		if k == "upload" {
			break
		}
		if k == "byKey" && len(g.uploads) == 0 {
			for j := i + 1; j < len(kinds); j++ {
				if kinds[j] == "upload" {
					kinds[i], kinds[j] = kinds[j], kinds[i]
					break
				}
			}
			break
		}
	}

	out := make([]*planned, 0, len(kinds))
	var local []int // indexes of this drain's uploads
	for _, k := range kinds {
		var p *planned
		switch k {
		case "hot":
			h := g.hot[g.rng.intn(len(g.hot))]
			p = &planned{kind: h.kind, body: h.body, dep: -1}
		case "fresh":
			p = g.fresh()
		case "upload":
			p = g.upload()
			local = append(local, len(out))
		case "byKey":
			p = g.byKey(out, local)
		default:
			p = g.small()
		}
		out = append(out, p)
	}
	for _, i := range local {
		g.uploads = append(g.uploads, out[i].uploadKey)
	}
	return out
}

// unique records body as issued and reports whether it was new.
func (g *streamGen) unique(body string) bool {
	if g.used[body] {
		return false
	}
	g.used[body] = true
	return true
}

// fresh draws a simulate or sweep request never issued before.
func (g *streamGen) fresh() *planned {
	names := workloads.Names()
	for {
		tr := traceRef(names[g.rng.intn(len(names))], freshLengths[g.rng.intn(len(freshLengths))])
		var kind, body string
		if g.rng.intn(3) == 0 {
			kind = "sweep"
			hist := g.distinctUints(3, 4, 20)
			body = fmt.Sprintf(`{"trace":%s,"grid":{"family":"gshare-hist","hist":[%s]}}`, tr, joinUints(hist))
		} else {
			kind = "simulate"
			body = fmt.Sprintf(`{"trace":%s,"specs":[%q,%q]}`, tr, g.spec(), g.spec())
		}
		if g.unique(body) {
			return &planned{kind: kind, body: []byte(body), dep: -1}
		}
	}
}

// spec draws a predictor spec from the kernel families.
func (g *streamGen) spec() string {
	switch g.rng.intn(4) {
	case 0:
		return fmt.Sprintf("gshare:%d", 4+g.rng.intn(15))
	case 1:
		return fmt.Sprintf("bimodal:%d", 6+g.rng.intn(11))
	case 2:
		return fmt.Sprintf("gas:%d,%d", 4+g.rng.intn(9), 2+g.rng.intn(7))
	default:
		return fmt.Sprintf("pas:%d,%d,%d", 4+g.rng.intn(9), 6+g.rng.intn(5), 2+g.rng.intn(5))
	}
}

// distinctUints draws k distinct values in [lo, hi], ascending.
func (g *streamGen) distinctUints(k, lo, hi int) []int {
	seen := map[int]bool{}
	var out []int
	for len(out) < k {
		v := lo + g.rng.intn(hi-lo+1)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

func joinUints(xs []int) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprint(x)
	}
	return strings.Join(s, ",")
}

// small draws an oracle or classify request at oracleN.
func (g *streamGen) small() *planned {
	names := workloads.Names()
	for tries := 0; ; tries++ {
		tr := traceRef(names[g.rng.intn(len(names))], oracleN)
		var kind, body string
		if g.rng.intn(2) == 0 {
			kind = "oracle"
			body = fmt.Sprintf(`{"trace":%s,"window_len":%d,"top_k":%d}`, tr, 8+g.rng.intn(9), 4+g.rng.intn(13))
		} else {
			kind = "classify"
			body = fmt.Sprintf(`{"trace":%s,"if_pas_history_bits":%d,"high_bias":0.%d}`, tr, 8+g.rng.intn(9), 90+g.rng.intn(10))
		}
		// The space is a few thousand requests; past it, repeats are
		// allowed rather than looping forever.
		if g.unique(body) || tries > 64 {
			return &planned{kind: kind, body: []byte(body), dep: -1}
		}
	}
}

// upload draws a seeded synthetic trace and returns its BTR1 upload
// with the content address the service must answer with: the sha256
// of its canonical BPK1 encoding.
func (g *streamGen) upload() *planned {
	g.nUpload++
	sites := 32 + g.rng.intn(96)
	n := 6000 + g.rng.intn(6000)
	bias := make([]float64, sites)
	for i := range bias {
		bias[i] = g.rng.float()
	}
	tr := trace.New(fmt.Sprintf("upload-%d", g.nUpload), n)
	for i := 0; i < n; i++ {
		s := g.rng.intn(sites)
		tr.Append(trace.Record{PC: trace.Addr(0x1000 + 4*s), Taken: g.rng.float() < bias[s], Backward: s%7 == 0})
	}
	var btr, bpk bytes.Buffer
	if err := tr.Write(&btr); err != nil {
		panic(err) // writing to a bytes.Buffer cannot fail
	}
	if err := corpus.Encode(&bpk, tr.Packed(), corpus.DefaultChunkLen); err != nil {
		panic(err)
	}
	sum := sha256.Sum256(bpk.Bytes())
	return &planned{kind: "traces", body: btr.Bytes(), dep: -1, uploadKey: hex.EncodeToString(sum[:])}
}

// byKey simulates an uploaded trace by its key, preferring one
// uploaded earlier in this drain (which it must wait for).
func (g *streamGen) byKey(drain []*planned, local []int) *planned {
	spec := g.spec()
	if len(local) > 0 && (len(g.uploads) == 0 || g.rng.intn(2) == 0) {
		i := local[g.rng.intn(len(local))]
		return &planned{kind: "simulate", dep: i,
			body: []byte(fmt.Sprintf(`{"trace":{"key":%q},"specs":[%q]}`, drain[i].uploadKey, spec))}
	}
	key := g.uploads[g.rng.intn(len(g.uploads))]
	return &planned{kind: "simulate", dep: -1,
		body: []byte(fmt.Sprintf(`{"trace":{"key":%q},"specs":[%q]}`, key, spec))}
}
