package trace

import (
	"fmt"

	"branchcorr/internal/obs"
)

// Packed is the columnar (structure-of-arrays) form of a trace, the one
// form every analysis reads. It is built once per trace and shared, so
// inner loops pay neither per-record struct loads nor per-address map
// lookups:
//
//   - every static branch site is interned to a dense ID (first-appearance
//     order), so per-branch state lives in flat slices indexed by ID
//     instead of maps keyed by Addr;
//   - the Taken and Backward columns are bitsets, one bit per dynamic
//     record, so direction tests are a shift and mask over cache-resident
//     words.
//
// The view is immutable once built and safe for concurrent readers;
// Trace.Packed builds it once per trace and hands the same view to every
// consumer.
type Packed struct {
	name   string
	ids    []int32 // dense branch ID per dynamic record
	addrs  []Addr  // ID -> static branch address, first-appearance order
	idOf   map[Addr]int32
	counts []int32  // ID -> number of dynamic records (occurrences)
	taken  []uint64 // bit i = record i resolved taken
	back   []uint64 // bit i = record i is a backward (loop-closing) branch
}

// pack builds the columnar view of recs in one linear pass; it runs
// once per trace, at the first Trace.Packed call. Dense IDs are assigned
// in order of first appearance, so packing is deterministic for a given
// record sequence. Every build is accounted into the default registry
// (counter trace.pack.builds, span trace.pack).
func pack(name string, recs []Record) *Packed {
	obs.Default().Counter("trace.pack.builds").Inc()
	defer obs.Default().StartSpan("trace.pack").End()
	words := (len(recs) + 63) / 64
	p := &Packed{
		name:  name,
		ids:   make([]int32, len(recs)),
		idOf:  make(map[Addr]int32),
		taken: make([]uint64, words),
		back:  make([]uint64, words),
	}
	for i, r := range recs {
		id, ok := p.idOf[r.PC]
		if !ok {
			id = int32(len(p.addrs))
			p.idOf[r.PC] = id
			p.addrs = append(p.addrs, r.PC)
			p.counts = append(p.counts, 0)
		}
		p.ids[i] = id
		p.counts[id]++
		if r.Taken {
			p.taken[i>>6] |= 1 << (uint(i) & 63)
		}
		if r.Backward {
			p.back[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return p
}

// AssemblePacked reconstructs a Packed view from raw columns — the load
// path of the on-disk corpus format, which persists exactly these
// columns. It validates the shape packing guarantees (every ID in range,
// IDs dense in first-appearance order, bitsets exactly sized with zero
// tail padding, intern table duplicate-free) and rebuilds the derived
// idOf map and per-ID counts, so an assembled view is indistinguishable
// from one packed from the same records.
func AssemblePacked(name string, addrs []Addr, ids []int32, taken, back []uint64) (*Packed, error) {
	words := (len(ids) + 63) / 64
	if len(taken) != words || len(back) != words {
		return nil, fmt.Errorf("trace: assemble: bitset sizes (%d, %d words) do not match %d records (%d words)",
			len(taken), len(back), len(ids), words)
	}
	if tail := uint(len(ids)) & 63; tail != 0 && words > 0 {
		mask := ^(uint64(1)<<tail - 1)
		if taken[words-1]&mask != 0 || back[words-1]&mask != 0 {
			return nil, fmt.Errorf("trace: assemble: nonzero bitset padding past record %d", len(ids))
		}
	}
	p := &Packed{
		name:   name,
		ids:    ids,
		addrs:  addrs,
		idOf:   make(map[Addr]int32, len(addrs)),
		counts: make([]int32, len(addrs)),
		taken:  taken,
		back:   back,
	}
	for id, a := range addrs {
		if _, dup := p.idOf[a]; dup {
			return nil, fmt.Errorf("trace: assemble: address 0x%x interned twice", uint32(a))
		}
		p.idOf[a] = int32(id)
	}
	seen := int32(0)
	for i, id := range ids {
		if id < 0 || int(id) >= len(addrs) {
			return nil, fmt.Errorf("trace: assemble: record %d has ID %d outside intern table of %d", i, id, len(addrs))
		}
		if id > seen {
			return nil, fmt.Errorf("trace: assemble: record %d introduces ID %d before ID %d (not first-appearance order)", i, id, seen)
		}
		if id == seen {
			seen++
		}
		p.counts[id]++
	}
	if int(seen) != len(addrs) {
		return nil, fmt.Errorf("trace: assemble: intern table has %d entries but only %d IDs appear", len(addrs), seen)
	}
	return p, nil
}

// Name returns the source trace's name.
func (p *Packed) Name() string { return p.name }

// Len returns the number of dynamic records.
func (p *Packed) Len() int { return len(p.ids) }

// NumBranches returns the number of distinct static branch sites.
func (p *Packed) NumBranches() int { return len(p.addrs) }

// IDs exposes the dense-ID column for read-only iteration. Callers must
// not modify it.
func (p *Packed) IDs() []int32 { return p.ids }

// ID returns record i's dense branch ID.
func (p *Packed) ID(i int) int32 { return p.ids[i] }

// AddrOf returns the static address interned as id.
func (p *Packed) AddrOf(id int32) Addr { return p.addrs[id] }

// Addrs exposes the ID -> address table for read-only iteration. Callers
// must not modify it.
func (p *Packed) Addrs() []Addr { return p.addrs }

// IDOf returns the dense ID of a static address, if the address appears
// in the trace.
func (p *Packed) IDOf(a Addr) (int32, bool) {
	id, ok := p.idOf[a]
	return id, ok
}

// Counts exposes the per-ID dynamic occurrence counts (Counts()[id] =
// number of records of branch id) for read-only iteration. Callers must
// not modify it.
func (p *Packed) Counts() []int32 { return p.counts }

// TakenWords exposes the raw taken bitset (bit i of word i/64 = record
// i resolved taken) for read-only iteration by batched kernels. Callers
// must not modify it.
func (p *Packed) TakenWords() []uint64 { return p.taken }

// BackwardWords exposes the raw backward-branch bitset for read-only
// iteration by batched kernels. Callers must not modify it.
func (p *Packed) BackwardWords() []uint64 { return p.back }

// Taken reports record i's resolved direction.
func (p *Packed) Taken(i int) bool {
	return p.taken[i>>6]>>(uint(i)&63)&1 != 0
}

// Backward reports whether record i is a backward branch.
func (p *Packed) Backward(i int) bool {
	return p.back[i>>6]>>(uint(i)&63)&1 != 0
}

// Record reconstructs record i from the columns (the inverse of
// packing), for consumers that walk the trace as predict/update records.
func (p *Packed) Record(i int) Record {
	return Record{PC: p.addrs[p.ids[i]], Taken: p.Taken(i), Backward: p.Backward(i)}
}
