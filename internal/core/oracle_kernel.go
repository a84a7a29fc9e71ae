package core

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"branchcorr/internal/obs"
	"branchcorr/internal/runner"
	"branchcorr/internal/trace"
)

// This file is the oracle's columnar hot path. It computes exactly what
// oracle_reference.go computes — differential tests enforce bit-identical
// Candidates and Selections — but over the packed (SoA, dense-ID) trace
// view, and for a whole ascending list of window lengths at once:
//
//   - pass 1's window tag resolution is a flat backward scan over the
//     dense-ID column with epoch-stamped occurrence/segment scratch
//     arrays, not a closure-based walk with linear per-PC searches
//     (oracleEmitter) — pass 1 must enumerate every candidate, so it
//     still walks the window, once, at the widest length;
//   - pass 1's per-(record × window-entry) map[Ref]*candStats lookups
//     become open-addressed flat candidate tables keyed by packed ref
//     keys (candTable), counting each candidate's joint distribution
//     per window-distance bucket; a prefix sum over the buckets gives
//     every window's counts;
//   - the reference's pass 2 (all pairs) and pass 3 (triple extensions)
//     trace streams fold into ONE stream that records, for the union of
//     every window's beam, each dynamic instance's state and distance
//     bucket into a per-branch instance matrix, each union slot
//     resolved in O(1) through the instance index (instindex.go);
//     every window's pairs and triples are then scored off-trace with
//     bit-sliced popcount kernels, embarrassingly parallel per branch
//     through the internal/runner worker pool.
//
// Net: 3 trace passes per window -> 2 per window list, no per-candidate
// allocations, no closures in the per-record loop.

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

// checkWindows panics unless windows is a non-empty, strictly ascending
// list of positive window lengths.
func checkWindows(windows []int) {
	if len(windows) == 0 {
		panic("core: oracle window list is empty")
	}
	for i, n := range windows {
		if n <= 0 {
			panic(fmt.Sprintf("core: window length %d must be positive", n))
		}
		if i > 0 && n <= windows[i-1] {
			panic(fmt.Sprintf("core: window lengths %v must be strictly ascending", windows))
		}
	}
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
// flat buffer of packed ref keys (direction in bit 63), for the widest
// of an ascending window list. Emission runs in order of increasing
// distance and both tags depend only on more recent records, so each
// narrower window's emission is a prefix of the buffer; ends records
// where each prefix stops. Occurrence counts and backward-segment dedup
// use epoch-stamped scratch indexed by dense branch ID, so each window
// entry costs O(1) instead of a linear scan over the PCs seen so far.
type oracleEmitter struct {
	windows []int // ascending window lengths; the last bounds the walk

	ids   []int32  // dense-ID column
	taken []uint64 // taken bitset, bit i = record i
	back  []uint64 // backward bitset

	scratch []emitScratch // per dense ID
	gen     uint64        // current emit generation
	seg     uint64        // current backward-segment stamp

	keys []uint64 // emitted packed ref keys | direction bit, Visit order
	ends []int    // keys[:ends[w]] is window windows[w]'s emission
}

// newPackedEmitter points a fresh emitter at a packed view's columns.
func newPackedEmitter(pt *trace.Packed, windows []int) *oracleEmitter {
	checkWindows(windows)
	widest := windows[len(windows)-1]
	return &oracleEmitter{
		windows: windows,
		ids:     pt.IDs(),
		taken:   pt.TakenWords(),
		back:    pt.BackwardWords(),
		scratch: make([]emitScratch, pt.NumBranches()),
		keys:    make([]uint64, 0, 2*widest),
		ends:    make([]int, len(windows)),
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
// position i in the widest window, and e.ends with each window's
// prefix length. The loop mirrors Window.Visit line for line: emission
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
	windows, ends := e.windows, e.ends
	lo := i - windows[len(windows)-1]
	if lo < 0 {
		lo = 0
	}
	w := 0
	cut := i - windows[0] // window w holds the records at p >= cut
	ids := e.ids
	scratch := e.scratch
	for p := i - 1; p >= lo; p-- {
		if p < cut {
			// Windows are strictly ascending, so one step back crosses
			// at most one window's edge.
			ends[w] = len(e.keys) //bplint:ignore bce-hoist the append position moves every iteration; it is read, not hoistable
			w++
			cut = i - windows[w]
		}
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
	for ; w < len(ends); w++ {
		ends[w] = len(e.keys) //bplint:ignore bce-hoist one read per remaining window after the walk
	}
}

// candTable is an open-addressed (linear-probe) candidate table: slots
// hold indices into the dense keys slice, so probing touches one flat
// int32 array and stats updates touch one flat count array — no
// pointers, no per-candidate allocation. Candidate c's counts are
// cnt[c*stride : (c+1)*stride]: one [4]uint32 joint distribution per
// window-distance bucket, cell state*2 + outcome (state/outcome 0 =
// taken, 1 = not-taken), so a one-window table costs what a plain
// {key, [4]uint32} table does. A one-window table reproduces the
// reference's mid-stream watermark prune (see OracleConfig.MaxCandidates)
// bit for bit; a table with several buckets never prunes (insert
// reports the watermark instead).
type candTable struct {
	slots  []int32 // index into keys, -1 = empty; power-of-two sized
	shift  uint    // 64 - log2(len(slots)), for fibonacci hashing
	keys   []uint64
	cnt    []uint32
	stride int // 4 × buckets
	prunes int // watermark prunes fired (summed into core.oracle.prune.events)
}

const candTableInitSlots = 16

// probe returns the slot holding key, or the first empty slot of its
// probe chain.
func (t *candTable) probe(key uint64) int {
	slots := t.slots
	keys := t.keys
	mask := uint64(len(slots) - 1)
	h := (key * 0x9E3779B97F4A7C15) >> t.shift
	for {
		s := slots[h]
		if s < 0 || keys[s] == key {
			return int(h)
		}
		h = (h + 1) & mask
	}
}

// init sizes the slot array up front for the given number of buckets;
// the counting loop hand-inlines the hit path (probe + increment), so it
// never checks for a nil table.
func (t *candTable) init(buckets int) {
	t.slots = make([]int32, candTableInitSlots)
	for i := range t.slots {
		t.slots[i] = -1
	}
	t.shift = 64 - uint(bits.TrailingZeros(candTableInitSlots))
	t.stride = 4 * buckets
}

// insert is the counting loop's miss path: h is the empty slot probe
// returned for key, cell its count index within the candidate's stride.
// The watermark fires exactly where the reference's prune does — before
// an insertion that would exceed 2*maxCandidates live candidates. A
// one-bucket table prunes there; a table with several buckets leaves
// itself untouched and returns false.
func (t *candTable) insert(h int, key uint64, cell int, maxCandidates int, addrs []trace.Addr) bool {
	if len(t.keys) >= 2*maxCandidates {
		if t.stride != 4 {
			return false
		}
		t.prune(maxCandidates, addrs)
		h = t.probe(key) // table rebuilt: find the new insert slot
	}
	t.keys = append(t.keys, key)
	n := len(t.cnt)
	t.cnt = slices.Grow(t.cnt, t.stride)[:n+t.stride]
	clear(t.cnt[n:])
	t.cnt[n+cell] = 1
	t.slots[h] = int32(len(t.keys) - 1)
	if 4*len(t.keys) >= 3*len(t.slots) {
		t.rebuild(2 * len(t.slots))
	}
	return true
}

// presence sums candidate c's counts over every bucket.
func (t *candTable) presence(c int) uint32 {
	var p uint32
	for _, v := range t.cnt[c*t.stride : (c+1)*t.stride] {
		p += v
	}
	return p
}

// prune keeps only the maxKeep candidates with the highest presence
// counts, ties broken by ref identity — the same total order as the
// reference's branchProfile.prune.
func (t *candTable) prune(maxKeep int, addrs []trace.Addr) {
	if len(t.keys) <= maxKeep {
		return
	}
	t.prunes++
	order := make([]int, len(t.keys))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		pi, pj := t.presence(order[i]), t.presence(order[j])
		if pi != pj {
			return pi > pj
		}
		return keyRefLess(t.keys[order[i]], t.keys[order[j]], addrs)
	})
	oldKeys, oldCnt, stride := t.keys, t.cnt, t.stride
	keys := make([]uint64, 0, cap(oldKeys))
	cnt := make([]uint32, 0, cap(oldCnt))
	for _, c := range order[:maxKeep] {
		keys = append(keys, oldKeys[c])
		cnt = append(cnt, oldCnt[c*stride:(c+1)*stride]...)
	}
	t.keys, t.cnt = keys, cnt
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
	for i, key := range t.keys {
		slots[t.probe(key)] = int32(i)
	}
}

// kernelProfile is the pass-1 state for one static branch (dense-ID
// indexed).
type kernelProfile struct {
	total [2]uint32 // outcome totals: [taken, not-taken]
	tab   candTable
}

// profileScore mirrors branchProfile.profileScore over one window's
// flat counts.
func (p *kernelProfile) profileScore(c []uint32) uint32 {
	score := max32(c[0], c[1]) + max32(c[2], c[3])
	presentT := c[0] + c[2]
	presentN := c[1] + c[3]
	return score + max32(p.total[0]-presentT, p.total[1]-presentN)
}

// profileGrid is oracle pass 1 over the columnar trace view for every
// window of an ascending list: one stream at the widest window, flat
// per-branch candidate tables counting per distance bucket, no closures
// and no per-candidate allocations. Entry w is bit-identical to
// ReferenceProfileCandidates at window windows[w].
//
// The widest window's candidates include every narrower window's, so
// when no table reaches the 2×MaxCandidates watermark no single-window
// profile would have pruned either and the bucket prefix sums are
// exact. When one does, the grid is abandoned and every window reruns
// as a one-window profile, which prunes exactly as the reference does.
// Either way the candidate counters reach the registry only for the
// profiles whose candidates are returned.
func profileGrid(pt *trace.Packed, windows []int, cfg OracleConfig) []map[trace.Addr]*Candidates {
	addrs := pt.Addrs()
	profiles := make([]kernelProfile, pt.NumBranches())
	for id := range profiles {
		profiles[id].tab.init(len(windows))
	}
	if profileRange(newPackedEmitter(pt, windows), profiles, cfg, addrs) {
		return assembleCandidates(profiles, addrs, len(windows), cfg)
	}
	out := make([]map[trace.Addr]*Candidates, len(windows))
	for w := range windows {
		out[w] = profileGrid(pt, windows[w:w+1], cfg)[0]
	}
	return out
}

// assembleCandidates turns pass 1's per-branch candidate tables into
// each window's ranked Candidates map: it prefix-sums the distance
// buckets in place, so a candidate's bucket w then holds its counts in
// window w, skips the candidates window w never saw, and ranks the rest.
func assembleCandidates(profiles []kernelProfile, addrs []trace.Addr, windows int, cfg OracleConfig) []map[trace.Addr]*Candidates {
	reg := obs.Or(cfg.Obs)
	result := make([]map[trace.Addr]*Candidates, windows)
	for w := range result {
		result[w] = make(map[trace.Addr]*Candidates, len(profiles))
	}
	var refs []Ref
	var scratch []scoredRef
	var prunes, occupancy int64
	for id := range profiles {
		p := &profiles[id]
		tab := &p.tab
		prunes += int64(tab.prunes)
		refs = refs[:0]
		for c, key := range tab.keys {
			refs = append(refs, decodeRefKey(key, addrs))
			row := tab.cnt[c*tab.stride : (c+1)*tab.stride]
			for x := 4; x < len(row); x++ {
				row[x] += row[x-4]
			}
		}
		for w := range result {
			scratch = scratch[:0]
			for c := range tab.keys {
				cnt := tab.cnt[c*tab.stride+4*w : c*tab.stride+4*w+4]
				pres := cnt[0] + cnt[1] + cnt[2] + cnt[3]
				if pres == 0 {
					continue // beyond window w: no per-window build saw it
				}
				scratch = append(scratch, scoredRef{ref: refs[c], score: p.profileScore(cnt), presence: pres})
			}
			occupancy += int64(len(scratch))
			reg.Gauge("core.oracle.candidates.peak").Max(int64(len(scratch)))
			result[w][addrs[id]] = rankCandidates(scratch, int(p.total[0]+p.total[1]), cfg.TopK)
		}
	}
	// Candidate occupancy and prune pressure depend only on (trace,
	// config): the profiling stream is sequential, so the counters are
	// deterministic and comparable across runs.
	reg.Counter("core.oracle.prune.events").Add(prunes)
	reg.Counter("core.oracle.candidates").Add(occupancy)
	return result
}

// profileRange is pass 1's per-record loop over the whole trace: emit
// the widest window at every position and count each emitted candidate
// into the branch's flat table under its distance bucket,
// hand-inlining the table hit path. It returns false, abandoning the
// stream, when a multi-bucket table reaches the prune watermark.
//
//bplint:hot
func profileRange(em *oracleEmitter, profiles []kernelProfile, cfg OracleConfig, addrs []trace.Addr) bool {
	allowOcc := cfg.schemeAllowed(Occurrence)
	allowBack := cfg.schemeAllowed(BackwardCount)
	ids := em.ids
	for i := range ids {
		p := &profiles[ids[i]]
		out := 1
		if em.taken1(i) {
			out = 0
		}
		p.total[out]++
		em.emit(i)
		tab := &p.tab
		start := 0
		for b, end := range em.ends {
			for _, key := range em.keys[start:end] {
				if key&refKeySchemeBit != 0 {
					if !allowBack {
						continue
					}
				} else if !allowOcc {
					continue
				}
				cell := 4*b + out
				if key&refKeyTakenBit == 0 {
					cell += 2 // state = not-taken
				}
				key &^= refKeyTakenBit
				// Hand-inlined table hit path; misses take the insert call.
				h := tab.probe(key)
				if s := tab.slots[h]; s >= 0 { //bplint:ignore bce-hoist insert may swap the slot array mid-loop; the header reload is the correctness contract
					tab.cnt[int(s)*tab.stride+cell]++ //bplint:ignore bce-hoist insert may grow the count array mid-loop; the header reload is the correctness contract
				} else if !tab.insert(h, key, cell, cfg.MaxCandidates, addrs) { //bplint:ignore kernel-purity miss path only; growth is amortized and bounded by the watermark
					return false
				}
			}
			start = end
		}
	}
	return true
}

// slotCodes describes the select pass's per-instance slot codes. A code
// is bucket<<1 | notTaken, where bucket is the smallest window index
// whose window holds the instance and len(windows) means absent from
// all of them; with one window the codes are exactly the State values
// (StateTaken, StateNotTaken, StateAbsent).
type slotCodes struct {
	bits   int      // bits per code: bit 0 the direction, bits [1, bits) the bucket
	absent uint64   // the code of an instance outside every window
	byDist []uint64 // byDist[d]: bucket<<1 of distance d, d in [1, widest]
}

func newSlotCodes(windows []int) slotCodes {
	k := len(windows)
	c := slotCodes{bits: 1 + bits.Len(uint(k)), absent: uint64(k) << 1}
	c.byDist = make([]uint64, windows[k-1]+1)
	w := 0
	for d := 1; d < len(c.byDist); d++ {
		if d > windows[w] {
			w++
		}
		c.byDist[d] = uint64(w) << 1
	}
	return c
}

// instMatrix stores one static branch's dynamic instances bit-sliced:
// for instance word x (instances 64x … 64x+63), union slot u and code
// bit j, planes[(x*slots+u)*bits+j] has bit t&63 set when instance t's
// code for slot u has bit j set. One instance's codes therefore sit in
// one contiguous row of slots×bits words. Both arrays are sized to the
// branch's dynamic count up front, so the collection stream never
// allocates.
type instMatrix struct {
	planes []uint64
	row    int      // words per instance word: slots × bits
	outs   []uint64 // bit t = instance t resolved taken
	n      int
}

func newInstMatrix(total, row int) instMatrix {
	words := (total + 63) / 64
	return instMatrix{planes: make([]uint64, words*row), row: row, outs: make([]uint64, words)}
}

// push appends an instance resolved in direction t (1 = taken) and
// returns the row of its instance word and its bit within the words.
func (m *instMatrix) push(t uint64) ([]uint64, uint) {
	x, b := m.n>>6, uint(m.n)&63
	m.outs[x] |= t << b
	m.n++
	return m.planes[x*m.row : (x+1)*m.row], b
}

// beam is one branch's select-pass state: the union of every window's
// beam bound to the instance index (union slot u resolving refs[u]),
// each window's beam as union slots, and the instance matrix the
// collection stream fills.
type beam struct {
	refs  []histRef
	slots [][]int // slots[w][j]: union slot of window w's beam candidate j
	m     instMatrix
}

// branchSelection is one branch's scored selections, written into a
// pre-assigned slot by the parallel scoring stage.
type branchSelection struct {
	size1, size2, size3 []Ref
}

// selectGrid is oracle passes 2+3 over the columnar trace view for every
// window of an ascending list, scoring cands[w] at window windows[w].
// One collection stream records, for every dynamic instance of a branch
// with a non-empty beam in some window, the code of each slot of the
// union of its windows' beams; each window's pair/triple joint
// distributions are then recovered per branch with bit-sliced popcount
// kernels, slots beyond the window's cutoff reading as StateAbsent, and
// scored in parallel across the internal/runner pool (cfg.ScoreParallel
// workers, identical output at any level). Entry w is bit-identical to
// ReferenceSelectRefs at window windows[w].
func selectGrid(pt *trace.Packed, windows []int, cands []map[trace.Addr]*Candidates, cfg OracleConfig) []*Selections {
	pcs := sortedPCs(cands)
	codes := newSlotCodes(windows)
	beams, hists, beamOf := buildBeams(pt, pcs, cands, &codes)

	// Collection stream: one pass over the trace, one set of union-slot
	// codes per dynamic instance.
	collectBeams(pt, beams, hists, &codes)

	return scoreSelections(pcs, cands, beamOf, &codes, cfg)
}

// sortedPCs returns the canonical branch order: every candidate map's
// keys, deduplicated and sorted. Scoring cells are created in this
// order, so the Selections are deterministic at any parallelism.
func sortedPCs(cands []map[trace.Addr]*Candidates) []trace.Addr {
	var pcs []trace.Addr
	for _, m := range cands {
		for pc := range m {
			pcs = append(pcs, pc)
		}
	}
	slices.Sort(pcs)
	return slices.Compact(pcs)
}

// buildBeams binds every branch's non-empty beam union to the instance
// index, both dense-ID indexed (for the collection loop) and keyed by PC
// (for the scoring stage), and returns the per-dense-ID histories of the
// PCs some beam candidate names (nil for the rest). A candidate naming a
// PC absent from the trace binds to no history: it can never be in any
// window, so it stays StateAbsent, exactly like the reference's States
// resolution.
func buildBeams(pt *trace.Packed, pcs []trace.Addr, cands []map[trace.Addr]*Candidates, codes *slotCodes) ([]*beam, []*instHist, map[trace.Addr]*beam) {
	beams := make([]*beam, pt.NumBranches())
	hists := make([]*instHist, pt.NumBranches())
	beamOf := make(map[trace.Addr]*beam, len(pcs))
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
	union := make(map[Ref]int)
	for _, pc := range pcs {
		bm := &beam{slots: make([][]int, len(cands))}
		var unionRefs []Ref
		clear(union)
		for w, m := range cands {
			c := m[pc]
			if c == nil || len(c.Refs) == 0 {
				continue
			}
			bm.slots[w] = make([]int, len(c.Refs))
			for j, r := range c.Refs {
				u, ok := union[r]
				if !ok {
					u = len(unionRefs)
					union[r] = u
					unionRefs = append(unionRefs, r)
				}
				bm.slots[w][j] = u
			}
		}
		if len(unionRefs) == 0 {
			continue
		}
		bm.refs = make([]histRef, len(unionRefs))
		for u, r := range unionRefs {
			bm.refs[u] = bindRef(r, histOf)
		}
		beamOf[pc] = bm
		if id, ok := pt.IDOf(pc); ok {
			bm.m = newInstMatrix(int(counts[id]), len(bm.refs)*codes.bits)
			beams[id] = bm
		}
	}
	return beams, hists, beamOf
}

// scoreSelections runs the off-trace scoring stage — per-branch,
// embarrassingly parallel, pre-assigned result slots — and assembles
// each window's Selections.
func scoreSelections(pcs []trace.Addr, cands []map[trace.Addr]*Candidates, beamOf map[trace.Addr]*beam, codes *slotCodes, cfg OracleConfig) []*Selections {
	results := make([][]branchSelection, len(pcs))
	cells := make([]runner.Cell, 0, len(pcs))
	for i, pc := range pcs {
		bm := beamOf[pc]
		if bm == nil {
			continue
		}
		i, pc := i, pc
		cells = append(cells, runner.Cell{
			Exhibit:  "oracle-score",
			Workload: fmt.Sprintf("0x%x", uint32(pc)),
			Run: func(context.Context) error {
				results[i] = scoreBranch(pc, bm, cands, codes)
				return nil
			},
		})
	}
	if err := runner.Run(context.Background(), cells, runner.Options{Parallel: cfg.ScoreParallel}); err != nil {
		// Cells are infallible and the context is never cancelled.
		panic("core: oracle scoring pool failed: " + err.Error())
	}

	out := make([]*Selections, len(cands))
	for w := range out {
		sel := &Selections{}
		for k := 1; k <= MaxSelectiveRefs; k++ {
			sel.BySize[k] = make(Assignment, len(cands[w]))
		}
		for i, pc := range pcs {
			if results[i] == nil {
				continue
			}
			r := &results[i][w]
			if r.size1 == nil {
				continue // empty beam: no assignment, like the reference
			}
			sel.BySize[1][pc] = r.size1
			sel.BySize[2][pc] = r.size2
			sel.BySize[3][pc] = r.size3
		}
		out[w] = sel
	}
	return out
}

// collectBeams is the folded pass-2/3 per-record loop: for every
// dynamic instance of a branch with a beam, resolve each union slot
// through the instance index and set its code — direction and distance
// bucket — into the branch's bit-sliced matrix, then commit the record
// to the index.
//
//bplint:hot
func collectBeams(pt *trace.Packed, beams []*beam, hists []*instHist, codes *slotCodes) {
	taken, back := pt.TakenWords(), pt.BackwardWords()
	byDist, absent, width := codes.byDist, codes.absent, codes.bits
	widest := uint64(len(byDist) - 1)
	var ix instIndex
	for i, id := range pt.IDs() {
		t := taken[i>>6] >> (uint(i) & 63) & 1
		if bm := beams[id]; bm != nil {
			row, b := bm.m.push(t)
			for u, r := range bm.refs {
				code := absent
				if v, ok := ix.inst(r); ok {
					if d := ix.seq - v>>1; d <= widest {
						code = byDist[d] | (v&1 ^ 1)
					}
				}
				seg := row[u*width : (u+1)*width]
				for ; code != 0; code &= code - 1 {
					seg[bits.TrailingZeros64(code)] |= 1 << b
				}
			}
		}
		ix.push(hists[id], t, back[i>>6]>>(uint(i)&63)&1)
	}
}

// windowMasks fills masks[j] with window w's taken and not-taken planes
// for beam candidate j (union slot slots[j]): bit t set when instance t
// saw the candidate in that state within the window. An instance whose
// bucket exceeds w (or is absent) is in neither plane; bits past the
// instance count stay clear.
func windowMasks(masks [][2][]uint64, m *instMatrix, slots []int, w int, codes *slotCodes) {
	width := codes.bits
	tail := ^uint64(0)
	if r := uint(m.n) & 63; r != 0 {
		tail = 1<<r - 1
	}
	for j, u := range slots {
		mt, mn := masks[j][0], masks[j][1]
		for x := range mt {
			p := m.planes[x*m.row+u*width : x*m.row+(u+1)*width]
			// Bit-sliced bucket > w, most significant bucket bit first.
			gt, eq := uint64(0), ^uint64(0)
			for i := width - 1; i >= 1; i-- {
				if w>>(i-1)&1 == 0 {
					gt |= eq & p[i]
					eq &^= p[i]
				} else {
					eq &= p[i]
				}
			}
			in := ^gt
			if x == len(mt)-1 {
				in &= tail
			}
			mt[x] = in &^ p[0]
			mn[x] = in & p[0]
		}
	}
}

// tally is one joint pattern's instance count and taken count.
type tally struct{ tot, tT uint32 }

func (a tally) minus(b tally) tally { return tally{a.tot - b.tot, a.tT - b.tT} }

// score is the statically-filled-PHT correct count of the pattern:
// max(taken, not-taken).
func (a tally) score() uint32 { return max32(a.tT, a.tot-a.tT) }

// and2 tallies the instances where both masks are set.
func and2(a, b []uint64, outT []uint64) tally {
	var tot, tT uint32
	for w, aw := range a {
		x := aw & b[w]
		tot += uint32(bits.OnesCount64(x))
		tT += uint32(bits.OnesCount64(x & outT[w]))
	}
	return tally{tot, tT}
}

// stateTallies is one beam candidate's per-state tallies, indexed by
// State.
type stateTallies [NumStates]tally

// tallies counts a candidate's taken and not-taken instances and
// derives the absent ones from the branch's totals.
func tallies(m *[2][]uint64, all tally, outT []uint64) stateTallies {
	var s stateTallies
	s[StateTaken] = and2(m[0], m[0], outT)
	s[StateNotTaken] = and2(m[1], m[1], outT)
	s[StateAbsent] = all.minus(s[StateTaken]).minus(s[StateNotTaken])
	return s
}

// pairScore is subsetScore for a two-candidate subset. The four
// present×present patterns come from mask intersections; the five
// involving an absent state follow from the single-candidate tallies,
// since the three states partition the instances.
func pairScore(ma, mb *[2][]uint64, sa, sb *stateTallies, outT []uint64) uint32 {
	tt := and2(ma[0], mb[0], outT)
	tn := and2(ma[0], mb[1], outT)
	nt := and2(ma[1], mb[0], outT)
	nn := and2(ma[1], mb[1], outT)
	ta := sa[StateTaken].minus(tt).minus(tn)
	na := sa[StateNotTaken].minus(nt).minus(nn)
	at := sb[StateTaken].minus(tt).minus(nt)
	an := sb[StateNotTaken].minus(tn).minus(nn)
	aa := sa[StateAbsent].minus(at).minus(an)
	return tt.score() + tn.score() + nt.score() + nn.score() +
		ta.score() + na.score() + at.score() + an.score() + aa.score()
}

// tripleScore is subsetScore for the best pair's 9 precomputed pattern
// masks (tallied in pt) extended by one more candidate: each pattern's
// absent split is its tally minus the two present splits.
func tripleScore(pm *[9][]uint64, pt *[9]tally, mc *[2][]uint64, outT []uint64) uint32 {
	score := uint32(0)
	for p := range pm {
		t := and2(pm[p], mc[0], outT)
		n := and2(pm[p], mc[1], outT)
		score += t.score() + n.score() + pt[p].minus(t).minus(n).score()
	}
	return score
}

// scoreBranch scores one branch at every window from its instance
// matrix: for each window with a non-empty beam it builds that beam's
// state masks and runs the subset search. Windows with an empty beam get
// a zero branchSelection.
func scoreBranch(pc trace.Addr, bm *beam, cands []map[trace.Addr]*Candidates, codes *slotCodes) []branchSelection {
	words := len(bm.m.outs)
	out := make([]branchSelection, len(cands))
	var masks [][2][]uint64
	for w, slots := range bm.slots {
		if slots == nil {
			continue
		}
		for len(masks) < len(slots) {
			masks = append(masks, [2][]uint64{make([]uint64, words), make([]uint64, words)})
		}
		windowMasks(masks, &bm.m, slots, w, codes)
		out[w] = searchSubsets(cands[w][pc].Refs, masks[:len(slots)], bm.m.outs, bm.m.n)
	}
	return out
}

// searchSubsets recovers the reference's pass-2/pass-3 subset search
// for one branch at one window from its beam's taken/not-taken masks
// over n instances: exact best pair by exhaustive popcount scoring
// (lexicographic enumeration, strict improvement — the same tie-breaks
// as the reference), then the best greedy triple extension of that
// pair.
//
//bplint:hot
func searchSubsets(refs []Ref, masks [][2][]uint64, outT []uint64, n int) branchSelection {
	k := len(refs)
	all := tally{tot: uint32(n)}
	for _, w := range outT {
		all.tT += uint32(bits.OnesCount64(w))
	}
	st := make([]stateTallies, k)
	for j := range st {
		st[j] = tallies(&masks[j], all, outT)
	}

	var bestI, bestJ int
	var bestScore uint32
	if k == 1 {
		bestI, bestJ = 0, -1
		bestScore = st[0][StateTaken].score() + st[0][StateNotTaken].score() + st[0][StateAbsent].score()
	} else {
		first := true
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if s := pairScore(&masks[i], &masks[j], &st[i], &st[j], outT); first || s > bestScore {
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
		// The nine pattern masks of the best pair, absent states
		// included: absent is neither taken nor not-taken.
		words := len(outT)
		tail := ^uint64(0)
		if r := uint(n) & 63; r != 0 {
			tail = 1<<r - 1
		}
		var states [2][NumStates][]uint64
		for side, c := range [2]int{bestI, bestJ} {
			absent := make([]uint64, words) //bplint:ignore kernel-purity two absent masks built once per branch and window, off the record stream
			for x := range absent {
				absent[x] = ^(masks[c][0][x] | masks[c][1][x])
			}
			if words > 0 {
				absent[words-1] &= tail
			}
			states[side] = [NumStates][]uint64{StateTaken: masks[c][0], StateNotTaken: masks[c][1], StateAbsent: absent}
		}
		var pm [9][]uint64
		var pt [9]tally
		for sa := 0; sa < NumStates; sa++ {
			for sb := 0; sb < NumStates; sb++ {
				w := make([]uint64, words) //bplint:ignore kernel-purity nine pair-pattern masks built once per branch, off the record stream
				a, b := states[0][sa], states[1][sb]
				for x := range w {
					w[x] = a[x] & b[x]
				}
				pm[sa*3+sb] = w
				pt[sa*3+sb] = and2(w, w, outT)
			}
		}
		triBest := bestScore
		ext := -1
		for e := 0; e < k; e++ {
			if e == bestI || e == bestJ {
				continue
			}
			if s := tripleScore(&pm, &pt, &masks[e], outT); s > triBest {
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
