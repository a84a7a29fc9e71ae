// Package trace provides the branch-trace substrate for the study: the
// dynamic conditional-branch record type, in-memory traces, a compact
// binary on-disk encoding with streaming reader/writer, and summary
// statistics.
//
// A trace is the sequence of all dynamically executed conditional branches
// of one workload run, in program order. Every analysis in this repository
// is trace-driven, mirroring the simulation methodology of Evers et al.
// (ISCA 1998), section 3.5.
package trace

import (
	"fmt"
	"sync"

	"branchcorr/internal/obs"
)

// Addr identifies a static branch site. It plays the role of the branch
// instruction's address in a real trace; synthetic workloads allocate
// addresses from disjoint per-workload ranges with the customary 4-byte
// instruction spacing.
type Addr uint32

// Record is one dynamically executed conditional branch.
type Record struct {
	// PC is the address of the static branch site.
	PC Addr
	// Taken reports the resolved direction.
	Taken bool
	// Backward reports whether the branch target precedes the branch
	// (a loop-closing branch). It is a static property of the site, kept
	// per record so streaming consumers need no side table. Backward
	// branches drive the backward-count tagging scheme of section 3.2.
	Backward bool
}

// String renders a record compactly, e.g. "0x4000 T" or "0x4010 N back".
func (r Record) String() string {
	dir := "N"
	if r.Taken {
		dir = "T"
	}
	if r.Backward {
		return fmt.Sprintf("0x%x %s back", uint32(r.PC), dir)
	}
	return fmt.Sprintf("0x%x %s", uint32(r.PC), dir)
}

// Trace is an in-memory branch trace. Its one analysis form is the
// packed columns (see Packed). A trace is built by Append into a record
// buffer, which the first Packed call packs once and releases; after
// that the trace holds only the columns, and Append panics.
type Trace struct {
	name string
	n    int // records appended; written only by Append

	// mu guards records, the build buffer, and packed, the columnar
	// view that replaces it.
	mu      sync.Mutex
	records []Record
	packed  *Packed
}

// New returns an empty trace with the given name (typically the workload
// name) and capacity hint.
func New(name string, capacity int) *Trace {
	return &Trace{name: name, records: make([]Record, 0, capacity)}
}

// FromPacked wraps a columnar view in a Trace without copying: the
// first Packed() call returns p itself, so a consumer that loads a
// pre-packed trace (the corpus store's hit path) pays neither record
// materialization nor a packing pass.
func FromPacked(p *Packed) *Trace {
	return &Trace{name: p.Name(), n: p.Len(), packed: p}
}

// Name returns the trace's name.
func (t *Trace) Name() string { return t.name }

// Len returns the number of dynamic branches in the trace.
func (t *Trace) Len() int { return t.n }

// Append adds a record to the trace's build buffer. It panics once the
// trace has been packed: the packed view is immutable and shared.
func (t *Trace) Append(r Record) {
	if t.packed != nil {
		panic("trace: Append after Packed")
	}
	t.records = append(t.records, r)
	t.n++
}

// Packed returns the trace's columnar view, packing the build buffer on
// the first call and releasing it. Every consumer of the trace — the
// sim engine, the oracle kernels, the summaries — shares one view, so
// interning and bitset construction are paid once per trace. Safe for
// concurrent callers.
func (t *Trace) Packed() *Packed {
	t.mu.Lock()
	defer t.mu.Unlock()
	reg := obs.Default()
	reg.Counter("trace.pack.memo.calls").Inc()
	if t.packed == nil {
		reg.Counter("trace.pack.memo.misses").Inc()
		t.packed = pack(t.name, t.records)
		t.records = nil
	}
	return t.packed
}
