package core

import (
	"context"
	"fmt"
	"math/bits"
	"sort"

	"branchcorr/internal/obs"
	"branchcorr/internal/runner"
	"branchcorr/internal/trace"
)

// This file is the oracle's columnar hot path. It computes exactly what
// oracle_reference.go computes — differential tests enforce bit-identical
// Candidates and Selections — but over the packed (SoA, dense-ID) trace
// view, with three structural changes:
//
//   - pass 1's window tag resolution is a flat backward scan over the
//     dense-ID column with epoch-stamped occurrence/segment scratch
//     arrays, not a closure-based walk with linear per-PC searches
//     (oracleEmitter) — pass 1 must enumerate every candidate, so it
//     still walks the window;
//   - pass 1's per-(record × window-entry) map[Ref]*candStats lookups
//     become open-addressed flat candidate tables keyed by packed ref
//     keys (candTable);
//   - the reference's pass 2 (all pairs) and pass 3 (triple extensions)
//     trace streams fold into ONE stream that records each dynamic
//     instance's 2-bit-per-candidate state vector into a per-branch
//     instance matrix, each beam slot resolved in O(1) through the
//     instance index (instindex.go); pairs and triples are then scored
//     off-trace with bit-sliced popcount kernels, embarrassingly
//     parallel per branch through the internal/runner worker pool.
//
// Net: 3 trace passes -> 2, no per-candidate allocations, no closures in
// the per-record loop.

// A refKey packs a Ref against the trace's dense branch IDs:
// bits [6..) dense ID, bit 5 scheme, bits [0..5) tag. For one PC the key
// order (scheme, then tag) matches refLess; across PCs keys must be
// compared through the ID -> Addr table (keyRefLess). The emitter
// additionally smuggles the emitted instance's direction in bit 63
// (refKeyTakenBit), so one uint64 buffer carries both the ref identity
// and its state; consumers mask the bit off before table lookups.
const (
	refKeySchemeBit = 1 << 5
	refKeyTagMask   = refKeySchemeBit - 1
	refKeyIDShift   = 6
	refKeyTakenBit  = uint64(1) << 63
)

func refKeyOcc(rid int32, tag uint8) uint64 {
	return uint64(uint32(rid))<<refKeyIDShift | uint64(tag)
}

func refKeyBack(rid int32, tag uint8) uint64 {
	return uint64(uint32(rid))<<refKeyIDShift | refKeySchemeBit | uint64(tag)
}

func decodeRefKey(key uint64, addrs []trace.Addr) Ref {
	s := Occurrence
	if key&refKeySchemeBit != 0 {
		s = BackwardCount
	}
	return Ref{PC: addrs[key>>refKeyIDShift], Scheme: s, Tag: uint8(key & refKeyTagMask)}
}

// keyRefLess orders packed ref keys identically to refLess on the
// decoded Refs: by address, then scheme, then tag. The low 6 bits encode
// (scheme, tag) in exactly refLess's lexicographic order, so only the ID
// needs decoding.
func keyRefLess(a, b uint64, addrs []trace.Addr) bool {
	aa, ab := addrs[a>>refKeyIDShift], addrs[b>>refKeyIDShift]
	if aa != ab {
		return aa < ab
	}
	return a&(refKeySchemeBit|refKeyTagMask) < b&(refKeySchemeBit|refKeyTagMask)
}

// emitScratch is one dense branch ID's per-window bookkeeping, packed
// into a single cache-line-friendly struct so each window entry touches
// one array element instead of three.
type emitScratch struct {
	occGen uint64 // emit-generation stamp: occCnt is valid when it matches
	segGen uint64 // backward-segment stamp for per-segment dedup
	occCnt uint8  // occurrence count within the current emit
}

// oracleEmitter reproduces Window.Visit's emission sequence — the
// nameable tagged instances of the n records preceding a trace position,
// most recent first, occurrence ref before backward ref per entry — as a
// flat buffer of packed ref keys (direction in bit 63). Occurrence
// counts and backward-segment dedup use epoch-stamped scratch indexed by
// dense branch ID, so each window entry costs O(1) instead of a linear
// scan over the PCs seen so far.
type oracleEmitter struct {
	n int // window length

	ids   []int32  // dense-ID column
	taken []uint64 // taken bitset, bit i = record i
	back  []uint64 // backward bitset

	scratch []emitScratch // per dense ID
	gen     uint64        // current emit generation
	seg     uint64        // current backward-segment stamp

	keys []uint64 // emitted packed ref keys | direction bit, Visit order
}

// newPackedEmitter points a fresh emitter at a packed view's columns.
func newPackedEmitter(pt *trace.Packed, windowLen int) *oracleEmitter {
	if windowLen <= 0 {
		panic(fmt.Sprintf("core: window length %d must be positive", windowLen))
	}
	return &oracleEmitter{
		n:       windowLen,
		ids:     pt.IDs(),
		taken:   pt.TakenWords(),
		back:    pt.BackwardWords(),
		scratch: make([]emitScratch, pt.NumBranches()),
		keys:    make([]uint64, 0, 2*windowLen),
	}
}

// taken1 reports column record p's direction.
func (e *oracleEmitter) taken1(p int) bool {
	return e.taken[p>>6]>>(uint(p)&63)&1 != 0
}

// back1 reports whether column record p is a backward branch.
func (e *oracleEmitter) back1(p int) bool {
	return e.back[p>>6]>>(uint(p)&63)&1 != 0
}

// emit fills e.keys with the tagged instances visible from trace
// position i. The loop mirrors Window.Visit line for line: emission
// happens before the occurrence count update, backward refs dedup within
// one iteration segment, and both counters saturate exactly like the
// reference's uint8 arithmetic.
//
//bplint:hot
func (e *oracleEmitter) emit(i int) {
	e.keys = e.keys[:0]
	e.gen++
	e.seg++
	backs := uint8(0)
	lo := i - e.n
	if lo < 0 {
		lo = 0
	}
	ids := e.ids
	scratch := e.scratch
	for p := i - 1; p >= lo; p-- {
		rid := ids[p]
		tb := uint64(0)
		tk := e.taken1(p)
		if tk {
			tb = refKeyTakenBit
		}
		sc := &scratch[rid]
		var o uint8
		if sc.occGen == e.gen {
			o = sc.occCnt
		}
		if o <= MaxTag {
			e.keys = append(e.keys, refKeyOcc(rid, o)|tb)
		}
		if sc.occGen != e.gen {
			sc.occGen = e.gen
			sc.occCnt = 1
		} else if o < 255 {
			sc.occCnt = o + 1
		}
		if backs <= MaxTag && sc.segGen != e.seg {
			// Within one iteration segment the same PC can appear more
			// than once with an identical tag; emit only the most recent
			// instance, matching States resolution.
			sc.segGen = e.seg
			e.keys = append(e.keys, refKeyBack(rid, backs)|tb)
		}
		if tk && e.back1(p) && backs < 255 {
			backs++
			e.seg++ // new segment: fresh dedup stamps
		}
	}
}

// candEntry is one candidate's joint distribution in flat form:
// cnt[state*2 + outcome], state/outcome 0 = taken, 1 = not-taken.
type candEntry struct {
	key uint64
	cnt [4]uint32
}

func (e *candEntry) presence() uint32 {
	return e.cnt[0] + e.cnt[1] + e.cnt[2] + e.cnt[3]
}

// candTable is an open-addressed (linear-probe) candidate table: slots
// hold indices into the dense cands slice, so probing touches one flat
// int32 array and stats updates touch one flat entry — no pointers, no
// per-candidate allocation. It reproduces the reference's mid-stream
// watermark prune (see OracleConfig.MaxCandidates) bit for bit.
type candTable struct {
	slots  []int32 // index into cands, -1 = empty; power-of-two sized
	shift  uint    // 64 - log2(len(slots)), for fibonacci hashing
	cands  []candEntry
	prunes int // watermark prunes fired (summed into core.oracle.prune.events)
}

const candTableInitSlots = 16

// probe returns the slot holding key, or the first empty slot of its
// probe chain.
func (t *candTable) probe(key uint64) int {
	slots := t.slots
	cands := t.cands
	mask := uint64(len(slots) - 1)
	h := (key * 0x9E3779B97F4A7C15) >> t.shift
	for {
		s := slots[h]
		if s < 0 || cands[s].key == key {
			return int(h)
		}
		h = (h + 1) & mask
	}
}

// init sizes the slot array up front; the counting loop hand-inlines
// the hit path (probe + increment), so it never checks for a nil table.
func (t *candTable) init() {
	t.slots = make([]int32, candTableInitSlots)
	for i := range t.slots {
		t.slots[i] = -1
	}
	t.shift = 64 - uint(bits.TrailingZeros(candTableInitSlots))
}

// insert is the counting loop's miss path: h is the empty slot probe
// returned for key. The watermark prune fires exactly where the
// reference's does — before an insertion that would exceed
// 2*maxCandidates live candidates.
func (t *candTable) insert(h int, key uint64, cell uint32, maxCandidates int, addrs []trace.Addr) {
	if len(t.cands) >= 2*maxCandidates {
		t.prune(maxCandidates, addrs)
		h = t.probe(key) // table rebuilt: find the new insert slot
	}
	var e candEntry
	e.key = key
	e.cnt[cell] = 1
	t.cands = append(t.cands, e)
	t.slots[h] = int32(len(t.cands) - 1)
	if 4*len(t.cands) >= 3*len(t.slots) {
		t.rebuild(2 * len(t.slots))
	}
}

// prune keeps only the maxKeep candidates with the highest presence
// counts, ties broken by ref identity — the same total order as the
// reference's branchProfile.prune.
func (t *candTable) prune(maxKeep int, addrs []trace.Addr) {
	if len(t.cands) <= maxKeep {
		return
	}
	t.prunes++
	sort.Slice(t.cands, func(i, j int) bool {
		pi, pj := t.cands[i].presence(), t.cands[j].presence()
		if pi != pj {
			return pi > pj
		}
		return keyRefLess(t.cands[i].key, t.cands[j].key, addrs)
	})
	t.cands = t.cands[:maxKeep]
	t.rebuild(len(t.slots))
}

// rebuild re-inserts every candidate into a fresh slot array of the
// given power-of-two size.
func (t *candTable) rebuild(size int) {
	slots := make([]int32, size)
	for i := range slots {
		slots[i] = -1
	}
	t.slots = slots
	t.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	cands := t.cands
	for i := range cands {
		slots[t.probe(cands[i].key)] = int32(i)
	}
}

// kernelProfile is the pass-1 state for one static branch (dense-ID
// indexed; the zero value is ready to use).
type kernelProfile struct {
	total [2]uint32 // outcome totals: [taken, not-taken]
	tab   candTable
}

// profileScore mirrors branchProfile.profileScore over the flat counts.
func (p *kernelProfile) profileScore(e *candEntry) uint32 {
	score := max32(e.cnt[0], e.cnt[1]) + max32(e.cnt[2], e.cnt[3])
	presentT := e.cnt[0] + e.cnt[2]
	presentN := e.cnt[1] + e.cnt[3]
	return score + max32(p.total[0]-presentT, p.total[1]-presentN)
}

// profilePacked is oracle pass 1 over the columnar trace view:
// one stream, flat per-branch candidate tables, no closures and no
// per-candidate allocations. It produces bit-identical results to
// ReferenceProfileCandidates.
func profilePacked(pt *trace.Packed, cfg OracleConfig) map[trace.Addr]*Candidates {
	cfg = cfg.withDefaults()
	defer obs.Or(cfg.Obs).StartSpan("core.oracle.profile").End()
	addrs := pt.Addrs()
	profiles := make([]kernelProfile, pt.NumBranches())
	for id := range profiles {
		profiles[id].tab.init()
	}
	em := newPackedEmitter(pt, cfg.WindowLen)
	profileRange(em, profiles, cfg, addrs, 0, pt.Len())
	return assembleCandidates(profiles, addrs, cfg)
}

// assembleCandidates turns pass 1's per-branch candidate tables into the
// ranked Candidates map.
func assembleCandidates(profiles []kernelProfile, addrs []trace.Addr, cfg OracleConfig) map[trace.Addr]*Candidates {
	reg := obs.Or(cfg.Obs)
	result := make(map[trace.Addr]*Candidates, len(profiles))
	var scratch []scoredRef
	var prunes, occupancy int64
	for id := range profiles {
		p := &profiles[id]
		prunes += int64(p.tab.prunes)
		occupancy += int64(len(p.tab.cands))
		reg.Gauge("core.oracle.candidates.peak").Max(int64(len(p.tab.cands)))
		scratch = scratch[:0]
		for ci := range p.tab.cands {
			e := &p.tab.cands[ci]
			scratch = append(scratch, scoredRef{
				ref:      decodeRefKey(e.key, addrs),
				score:    p.profileScore(e),
				presence: e.presence(),
			})
		}
		result[addrs[id]] = rankCandidates(scratch, int(p.total[0]+p.total[1]), cfg.TopK)
	}
	// Candidate occupancy and prune pressure depend only on (trace,
	// config): the profiling stream is sequential, so the counters are
	// deterministic and comparable across runs.
	reg.Counter("core.oracle.prune.events").Add(prunes)
	reg.Counter("core.oracle.candidates").Add(occupancy)
	return result
}

// profileRange is pass 1's per-record loop over emitter column positions
// [lo, hi): emit the window at every position and count each emitted
// candidate into the branch's flat table, hand-inlining the table hit
// path.
//
//bplint:hot
func profileRange(em *oracleEmitter, profiles []kernelProfile, cfg OracleConfig, addrs []trace.Addr, lo, hi int) {
	allowOcc := cfg.schemeAllowed(Occurrence)
	allowBack := cfg.schemeAllowed(BackwardCount)
	ids := em.ids
	for i := lo; i < hi; i++ {
		p := &profiles[ids[i]]
		out := uint32(1)
		if em.taken1(i) {
			out = 0
		}
		p.total[out]++
		em.emit(i)
		tab := &p.tab
		for _, key := range em.keys {
			if key&refKeySchemeBit != 0 {
				if !allowBack {
					continue
				}
			} else if !allowOcc {
				continue
			}
			cell := out
			if key&refKeyTakenBit == 0 {
				cell += 2 // state = not-taken
			}
			key &^= refKeyTakenBit
			// Hand-inlined table hit path; misses take the insert call.
			h := tab.probe(key)
			if s := tab.slots[h]; s >= 0 { //bplint:ignore bce-hoist insert may swap the slot array mid-loop; the header reload is the correctness contract
				tab.cands[s].cnt[cell]++ //bplint:ignore bce-hoist insert may grow the candidate array mid-loop; the header reload is the correctness contract
			} else {
				tab.insert(h, key, cell, cfg.MaxCandidates, addrs) //bplint:ignore kernel-purity miss path only; growth is amortized and bounded by the watermark prune
			}
		}
	}
}

// instMatrix stores, for one static branch, each dynamic instance's
// packed candidate-state vector (2 bits per beam candidate: StateTaken,
// StateNotTaken or StateAbsent) and its outcome bitset. Both are sized
// to the branch's dynamic count up front, so push never allocates.
type instMatrix struct {
	vecs []uint64
	outs []uint64 // bit t = instance t resolved taken
	n    int
}

func newInstMatrix(total int) instMatrix {
	return instMatrix{vecs: make([]uint64, total), outs: make([]uint64, (total+63)/64)}
}

func (m *instMatrix) push(vec uint64, taken bool) {
	m.vecs[m.n] = vec
	if taken {
		m.outs[m.n>>6] |= 1 << (uint(m.n) & 63)
	}
	m.n++
}

// beam is one branch's select-pass state: its beam candidates bound to
// the instance index, slot i resolving beam candidate i, and the
// instance matrix the collection stream fills.
type beam struct {
	refs []histRef
	m    instMatrix
}

// branchSelection is one branch's scored selections, written into a
// pre-assigned slot by the parallel scoring stage.
type branchSelection struct {
	size1, size2, size3 []Ref
}

// selectPacked is oracle passes 2+3 over the columnar trace view,
// folded into a single collection stream plus an off-trace scoring
// stage. For every dynamic instance of a branch with a non-empty beam it
// records the packed state vector of all beam candidates (2 bits each,
// ≤ 64 bits at the maxTopK beam) into the branch's instance matrix; the
// exact pair/triple joint distributions are then recovered per branch
// with bit-sliced popcount kernels and scored in parallel across the
// internal/runner pool (cfg.ScoreParallel workers, identical output at
// any level). Produces bit-identical Selections to ReferenceSelectRefs.
func selectPacked(pt *trace.Packed, cands map[trace.Addr]*Candidates, cfg OracleConfig) *Selections {
	cfg = cfg.withDefaults()
	defer obs.Or(cfg.Obs).StartSpan("core.oracle.select").End()

	pcs := sortedPCs(cands)
	beams, hists, beamOf := buildBeams(pt, pcs, cands)

	// Collection stream: one pass over the trace, one packed state
	// vector per dynamic instance.
	collectBeams(pt, beams, hists, uint64(cfg.WindowLen))

	return scoreSelections(pcs, cands, beamOf, cfg)
}

// sortedPCs returns the canonical branch order: candidate-map keys,
// sorted. Scoring cells are created in this order, so the Selections are
// deterministic at any parallelism.
func sortedPCs(cands map[trace.Addr]*Candidates) []trace.Addr {
	pcs := make([]trace.Addr, 0, len(cands))
	for pc := range cands {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	return pcs
}

// buildBeams binds every non-empty beam to the instance index, both
// dense-ID indexed (for the collection loop) and keyed by PC (for the
// scoring stage), and returns the per-dense-ID histories of the PCs some
// beam candidate names (nil for the rest). A candidate naming a PC
// absent from the trace binds to no history: it can never be in any
// window, so it stays StateAbsent, exactly like the reference's States
// resolution.
func buildBeams(pt *trace.Packed, pcs []trace.Addr, cands map[trace.Addr]*Candidates) ([]*beam, []*instHist, map[trace.Addr]*beam) {
	beams := make([]*beam, pt.NumBranches())
	hists := make([]*instHist, pt.NumBranches())
	beamOf := make(map[trace.Addr]*beam, len(cands))
	histOf := func(pc trace.Addr) *instHist {
		id, ok := pt.IDOf(pc)
		if !ok {
			return nil
		}
		if hists[id] == nil {
			hists[id] = new(instHist)
		}
		return hists[id]
	}
	counts := pt.Counts()
	for _, pc := range pcs {
		c := cands[pc]
		if len(c.Refs) == 0 {
			continue
		}
		bm := &beam{refs: make([]histRef, len(c.Refs))}
		for slot, r := range c.Refs {
			bm.refs[slot] = bindRef(r, histOf)
		}
		beamOf[pc] = bm
		if id, ok := pt.IDOf(pc); ok {
			bm.m = newInstMatrix(int(counts[id]))
			beams[id] = bm
		}
	}
	return beams, hists, beamOf
}

// scoreSelections runs the off-trace scoring stage — per-branch,
// embarrassingly parallel, pre-assigned result slots — and assembles the
// Selections.
func scoreSelections(pcs []trace.Addr, cands map[trace.Addr]*Candidates, beamOf map[trace.Addr]*beam, cfg OracleConfig) *Selections {
	results := make([]branchSelection, len(pcs))
	cells := make([]runner.Cell, 0, len(pcs))
	for i, pc := range pcs {
		c := cands[pc]
		if len(c.Refs) == 0 {
			continue
		}
		i, bm, refs := i, beamOf[pc], c.Refs
		cells = append(cells, runner.Cell{
			Exhibit:  "oracle-score",
			Workload: fmt.Sprintf("0x%x", uint32(pc)),
			Run: func(context.Context) error {
				results[i] = scoreBranch(refs, &bm.m)
				return nil
			},
		})
	}
	if err := runner.Run(context.Background(), cells, runner.Options{Parallel: cfg.ScoreParallel}); err != nil {
		// Cells are infallible and the context is never cancelled.
		panic("core: oracle scoring pool failed: " + err.Error())
	}

	sel := &Selections{}
	for k := 1; k <= MaxSelectiveRefs; k++ {
		sel.BySize[k] = make(Assignment, len(cands))
	}
	for i, pc := range pcs {
		r := &results[i]
		if r.size1 == nil {
			continue // empty beam: no assignment, like the reference
		}
		sel.BySize[1][pc] = r.size1
		sel.BySize[2][pc] = r.size2
		sel.BySize[3][pc] = r.size3
	}
	return sel
}

// collectBeams is the folded pass-2/3 per-record loop: for every
// dynamic instance of a branch with a beam, resolve each beam slot
// through the instance index within the last n records and push the
// packed state vector, then commit the record to the index.
//
//bplint:hot
func collectBeams(pt *trace.Packed, beams []*beam, hists []*instHist, n uint64) {
	taken, back := pt.TakenWords(), pt.BackwardWords()
	var ix instIndex
	for i, id := range pt.IDs() {
		t := taken[i>>6] >> (uint(i) & 63) & 1
		if bm := beams[id]; bm != nil {
			vec := uint64(0)
			for slot, r := range bm.refs {
				vec |= uint64(ix.state(r, n)) << (2 * uint(slot))
			}
			bm.m.push(vec, t != 0)
		}
		ix.push(hists[id], t, back[i>>6]>>(uint(i)&63)&1)
	}
}

// buildMasks bit-slices a branch's instance matrix: masks[slot][state]
// has bit t set when instance t saw beam candidate slot in that state.
func buildMasks(k int, m *instMatrix) [][3][]uint64 {
	words := (m.n + 63) / 64
	masks := make([][3][]uint64, k)
	for s := range masks {
		for st := 0; st < NumStates; st++ {
			masks[s][st] = make([]uint64, words) //bplint:ignore kernel-purity mask planes are sized once per branch, before the bit-sliced record loops
		}
	}
	for t, vec := range m.vecs {
		w, b := t>>6, uint(t)&63
		for slot := 0; slot < k; slot++ {
			st := vec >> (2 * uint(slot)) & 3
			masks[slot][st][w] |= 1 << b
		}
	}
	return masks
}

// patternCount tallies one joint pattern: the instances where every
// listed mask agrees, split by outcome. Returns the
// statically-filled-PHT correct count max(taken, not-taken).
func patternScore(a, b []uint64, outT []uint64) uint32 {
	var tot, tT uint32
	for w, aw := range a {
		x := aw & b[w]
		tot += uint32(bits.OnesCount64(x))
		tT += uint32(bits.OnesCount64(x & outT[w]))
	}
	return max32(tT, tot-tT)
}

// singleScore is subsetScore for a one-candidate subset.
func singleScore(ma *[3][]uint64, outT []uint64) uint32 {
	score := uint32(0)
	for s := 0; s < NumStates; s++ {
		var tot, tT uint32
		for w, mw := range ma[s] {
			tot += uint32(bits.OnesCount64(mw))
			tT += uint32(bits.OnesCount64(mw & outT[w]))
		}
		score += max32(tT, tot-tT)
	}
	return score
}

// pairScore is subsetScore for a two-candidate subset: nine joint
// patterns recovered by mask intersection.
func pairScore(ma, mb *[3][]uint64, outT []uint64) uint32 {
	score := uint32(0)
	for sa := 0; sa < NumStates; sa++ {
		for sb := 0; sb < NumStates; sb++ {
			score += patternScore(ma[sa], mb[sb], outT)
		}
	}
	return score
}

// tripleScore is subsetScore for the best pair's 9 precomputed pattern
// masks extended by one more candidate (27 joint patterns).
func tripleScore(pm *[9][]uint64, mc *[3][]uint64, outT []uint64) uint32 {
	score := uint32(0)
	for p := 0; p < 9; p++ {
		for sc := 0; sc < NumStates; sc++ {
			score += patternScore(pm[p], mc[sc], outT)
		}
	}
	return score
}

// scoreBranch recovers the reference's pass-2/pass-3 subset search for
// one branch from its instance matrix: exact best pair by exhaustive
// popcount scoring (lexicographic enumeration, strict improvement — the
// same tie-breaks as the reference), then the best greedy triple
// extension of that pair.
//
//bplint:hot
func scoreBranch(refs []Ref, m *instMatrix) branchSelection {
	k := len(refs)
	masks := buildMasks(k, m)
	outT := m.outs

	var bestI, bestJ int
	var bestScore uint32
	if k == 1 {
		bestI, bestJ = 0, -1
		bestScore = singleScore(&masks[0], outT)
	} else {
		first := true
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if s := pairScore(&masks[i], &masks[j], outT); first || s > bestScore {
					bestI, bestJ, bestScore = i, j, s
					first = false
				}
			}
		}
	}

	var out branchSelection
	out.size1 = []Ref{refs[0]}
	if bestJ < 0 {
		out.size2 = []Ref{refs[0]}
	} else {
		out.size2 = []Ref{refs[bestI], refs[bestJ]}
	}
	out.size3 = out.size2

	if bestJ >= 0 && k > 2 {
		var pm [9][]uint64
		words := len(outT)
		for sa := 0; sa < NumStates; sa++ {
			for sb := 0; sb < NumStates; sb++ {
				w := make([]uint64, words) //bplint:ignore kernel-purity nine pair-pattern masks built once per branch, off the record stream
				a, b := masks[bestI][sa], masks[bestJ][sb]
				for x := range w {
					w[x] = a[x] & b[x]
				}
				pm[sa*3+sb] = w
			}
		}
		triBest := bestScore
		ext := -1
		for e := 0; e < k; e++ {
			if e == bestI || e == bestJ {
				continue
			}
			if s := tripleScore(&pm, &masks[e], outT); s > triBest {
				triBest, ext = s, e
			}
		}
		if ext >= 0 {
			tri := []int{bestI, bestJ, ext}
			sort.Ints(tri)
			out.size3 = []Ref{refs[tri[0]], refs[tri[1]], refs[tri[2]]}
		}
	}
	return out
}
