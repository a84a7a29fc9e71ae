// Package workloads provides the eight synthetic SPECint95 stand-in
// programs used in place of the paper's traces (DESIGN.md §2 documents the
// substitution). Each workload is a real, deterministic algorithm — an
// LZW compressor, an expression compiler, a Go-board engine, a JPEG-style
// DCT coder, a RISC CPU simulator, a word-game string engine, an object
// database, and a Lisp interpreter — instrumented so that every
// conditional branch in its hot code emits a trace record through a
// Tracer. The algorithms were chosen so their branch populations have the
// same character as the corresponding SPECint95 benchmark: the compiler
// and board engine are dominated by weakly-biased data-dependent branches
// (like gcc and go, the hardest to predict), the database and CPU
// simulator by heavily biased checks (like vortex and m88ksim), and the
// image coder by deep fixed-trip loops (like ijpeg).
package workloads

import (
	"fmt"
	"os"
	"sort"

	"branchcorr/internal/trace"
)

// DefaultLength is the default number of dynamic conditional branches per
// generated trace. The paper's traces run 10.6M–33.9M branches; 2M keeps
// the full experiment suite minutes-scale with stable predictor rankings.
const DefaultLength = 2_000_000

// Revision identifies the generator implementation for content-addressed
// trace caching (corpus.Key): equal (workload, length, Revision) keys
// promise byte-identical generated traces. Bump it whenever any
// workload's generated output changes, so stale corpus entries stop
// matching instead of silently serving old traces.
const Revision = "2026-08-g1"

// Workload generates the branch trace of one synthetic program.
type Workload interface {
	// Name is the SPECint95 benchmark this workload stands in for
	// (compress, gcc, go, ijpeg, m88ksim, perl, vortex, xlisp).
	Name() string
	// Description says what the synthetic program actually computes.
	Description() string
	// Generate runs the program until it has emitted exactly length
	// conditional branches and returns the trace. Generation is
	// deterministic: equal lengths produce identical traces.
	Generate(length int) *trace.Trace
}

// All returns the eight workloads in the paper's (alphabetical) order.
func All() []Workload {
	return []Workload{
		newCompress(),
		newGCC(),
		newGo(),
		newIJPEG(),
		newM88ksim(),
		newPerl(),
		newVortex(),
		newXlisp(),
	}
}

// Names returns the workload names in order.
func Names() []string {
	ws := All()
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name()
	}
	return names
}

// ByName returns the workload with the given name.
func ByName(name string) (Workload, error) {
	for _, w := range All() {
		if w.Name() == name {
			return w, nil
		}
	}
	names := Names()
	sort.Strings(names)
	return nil, fmt.Errorf("workloads: unknown workload %q (have %v)", name, names)
}

// Load returns the trace a command's -trace FILE / -workload NAME flag
// pair selects: the BTR1 file at path if one is given, otherwise the
// named workload generated at n branches.
func Load(path, name string, n int) (*trace.Trace, error) {
	switch {
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.Read(f)
	case name != "":
		w, err := ByName(name)
		if err != nil {
			return nil, err
		}
		return w.Generate(n), nil
	default:
		return nil, fmt.Errorf("need -trace FILE or -workload NAME")
	}
}

// Site is one static conditional-branch site of a workload.
type Site struct {
	PC       trace.Addr
	Backward bool
}

// siteAllocator hands out site addresses within a workload's address
// range, 4 bytes apart like real instructions.
type siteAllocator struct {
	next trace.Addr
}

// newSiteAllocator starts allocating at base. Workloads use disjoint
// 0x0100_0000-sized ranges so traces can be merged or compared without
// address collisions.
func newSiteAllocator(base trace.Addr) *siteAllocator {
	return &siteAllocator{next: base}
}

func (a *siteAllocator) fwd() Site {
	s := Site{PC: a.next}
	a.next += 4
	return s
}

func (a *siteAllocator) back() Site {
	s := Site{PC: a.next, Backward: true}
	a.next += 4
	return s
}

// traceFull is the sentinel panic the Tracer raises when the requested
// trace length has been reached; Generate recovers it.
type traceFull struct{}

// Tracer collects the branch stream of a running workload. Workload code
// routes every hot conditional through B:
//
//	if t.B(site, x < y) { ... }
//
// which records the branch and returns the condition. When the requested
// number of branches has been emitted, B panics with a private sentinel
// that run recovers — this lets workloads be written as straight-line
// algorithms with no length plumbing.
type Tracer struct {
	t     *trace.Trace
	limit int
}

// B records one execution of the conditional branch at site and returns
// cond unchanged.
func (t *Tracer) B(site Site, cond bool) bool {
	t.t.Append(trace.Record{PC: site.PC, Taken: cond, Backward: site.Backward})
	if t.t.Len() >= t.limit {
		panic(traceFull{})
	}
	return cond
}

// run executes body, collecting exactly length branches into a trace
// named name. body must emit branches forever (the tracer stops it); if
// body returns early, run restarts it — state carried inside the workload
// closure keeps successive rounds distinct.
func run(name string, length int, body func(*Tracer)) *trace.Trace {
	if length <= 0 {
		return trace.New(name, 0)
	}
	tr := &Tracer{t: trace.New(name, length), limit: length}
	for tr.t.Len() < length {
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(traceFull); !ok {
						panic(r)
					}
				}
			}()
			body(tr)
		}()
	}
	return tr.t
}

// prng is the deterministic pseudo-random source workloads draw their
// inputs from (xorshift32). Determinism matters: traces must be exactly
// reproducible across runs and platforms.
type prng uint32

func newPRNG(seed uint32) *prng {
	if seed == 0 {
		seed = 0x9E3779B9
	}
	p := prng(seed)
	return &p
}

func (p *prng) next() uint32 {
	x := uint32(*p)
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	*p = prng(x)
	return x
}

// intn returns a value in [0, n).
func (p *prng) intn(n int) int {
	return int(p.next() % uint32(n))
}

// chance returns true with probability num/den.
func (p *prng) chance(num, den int) bool {
	return p.intn(den) < num
}
