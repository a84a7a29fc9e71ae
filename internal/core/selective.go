package core

import (
	"fmt"
	"math/bits"

	"branchcorr/internal/bp"
	"branchcorr/internal/trace"
)

// MaxSelectiveRefs is the largest selective-history size the paper
// studies (1, 2 or 3 most-important branches).
const MaxSelectiveRefs = 3

// pow3 holds powers of three for pattern indexing.
var pow3 = [MaxSelectiveRefs + 1]int{1, 3, 9, 27}

// Assignment maps each static branch to the correlated-branch instances
// whose outcomes form its selective history. Branches may have fewer refs
// than the nominal history size (e.g. a branch with no useful correlation
// candidates), down to zero refs, in which case the selective predictor
// degenerates to a single private 2-bit counter for that branch.
type Assignment map[trace.Addr][]Ref

// Mode selects how much of a correlated instance's state the selective
// history records, separating the two correlation kinds of section 3.1.
type Mode uint8

const (
	// ModeDirection is the paper's section 3.4 predictor: each ref
	// contributes taken / not-taken / not-in-path (radix 3). It captures
	// direction correlation and in-path correlation together.
	ModeDirection Mode = iota
	// ModePresence discards the correlated branch's outcome and records
	// only whether it was in the path (radix 2). The accuracy a
	// presence-only history retains is a direct measure of in-path
	// correlation (section 3.1): knowing a branch was reached says which
	// way the branches before it went, regardless of its own direction.
	ModePresence
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeDirection:
		return "direction"
	case ModePresence:
		return "presence"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Selective is the hypothetical predictor of section 3.4. It works like a
// global two-level predictor, but the first-level history of a branch
// contains only the outcomes of its assigned correlated branches, each
// recorded as taken, not-taken, or not-in-path. A k-ref history therefore
// has 3^k patterns, each selecting a 2-bit counter in a per-branch
// (interference-free) second-level table; the upper counter bit is the
// prediction and the counter trains on the branch's outcome, identically
// to a global two-level predictor.
//
// Refs resolve through the instance index (instindex.go) in O(1) each.
// Per-branch state lives in slots: the scalar Predict/Update pair finds
// a branch's slot by address, the batched SimulateBlock kernel through a
// per-dense-ID column of slot numbers, so both paths train the same
// counters and histories and their calls may interleave on one instance.
type Selective struct {
	name     string
	n        uint64 // window length
	code     modeCode
	ix       instIndex
	slotOf   addrTable // branch address -> slots index
	slots    []selSlot
	counters []bp.Counter2 // every slot's pattern counters, back to back
	cols     []int32       // kernel column: dense ID -> slots index
}

// selSlot is one static branch's cell (bound refs and counter offset)
// plus its own history (nil unless some ref names the branch).
type selSlot struct {
	selCell
	self *instHist
}

// NewSelective builds a selective-history predictor over a window of n
// branches with the given per-branch ref assignment, in the paper's
// direction mode. Branches absent from the assignment get an empty ref
// set lazily.
func NewSelective(name string, n int, assign Assignment) *Selective {
	return NewSelectiveMode(name, n, assign, ModeDirection)
}

// NewSelectiveMode builds a selective-history predictor with an explicit
// state mode (see Mode).
func NewSelectiveMode(name string, n int, assign Assignment, mode Mode) *Selective {
	if n <= 0 {
		panic(fmt.Sprintf("core: window length %d must be positive", n))
	}
	checkAssignment(assign)
	s := &Selective{name: name, n: uint64(n), code: codeOf(mode)}
	// Every branch that carries refs or a history gets its slot up
	// front; the rest are plain per-branch counters, added on first
	// sight.
	hists := namedHists(assign)
	s.slotOf.reserve(len(assign) + len(hists))
	for pc, refs := range assign {
		s.addSlot(pc, bindRefs(refs, hists), hists[pc])
	}
	for pc, h := range hists {
		if _, ok := s.slotOf.find(pc); !ok {
			s.addSlot(pc, nil, h)
		}
	}
	return s
}

// checkAssignment panics on a branch assigned more refs than the largest
// selective history.
func checkAssignment(assign Assignment) {
	for pc, refs := range assign {
		if len(refs) > MaxSelectiveRefs {
			panic(fmt.Sprintf("core: branch 0x%x assigned %d refs, max %d",
				uint32(pc), len(refs), MaxSelectiveRefs))
		}
	}
}

// namedHists allocates one instance history per PC that some nameable
// ref of the assignment names.
func namedHists(assign Assignment) map[trace.Addr]*instHist {
	hists := make(map[trace.Addr]*instHist)
	for _, refs := range assign {
		for _, r := range refs {
			if r.Tag <= MaxTag && hists[r.PC] == nil {
				hists[r.PC] = new(instHist)
			}
		}
	}
	return hists
}

// bindRefs binds a branch's refs to the histories of hists.
func bindRefs(refs []Ref, hists map[trace.Addr]*instHist) []histRef {
	if len(refs) == 0 {
		return nil
	}
	out := make([]histRef, len(refs))
	for i, r := range refs {
		out[i] = bindRef(r, func(pc trace.Addr) *instHist { return hists[pc] })
	}
	return out
}

// addSlot creates pc's slot over its bound refs and own history; the
// slot must not exist yet, and slotOf must have room reserved.
func (s *Selective) addSlot(pc trace.Addr, refs []histRef, self *instHist) int32 {
	slot := int32(len(s.slots))
	s.slots = append(s.slots, selSlot{
		selCell: selCell{refs: refs, base: int32(len(s.counters))},
		self:    self,
	})
	s.counters = append(s.counters, make([]bp.Counter2, pow3[len(refs)])...)
	s.slotOf.insert(pc, slot)
	return slot
}

// slot returns pc's slot for the scalar path, adding a plain one on
// first sight.
func (s *Selective) slot(pc trace.Addr) *selSlot {
	i, ok := s.slotOf.find(pc)
	if !ok {
		s.slotOf.reserve(1)
		i = s.addSlot(pc, nil, nil)
	}
	return &s.slots[i]
}

// Name implements bp.Predictor.
func (s *Selective) Name() string { return s.name }

// Predict implements bp.Predictor.
func (s *Selective) Predict(r trace.Record) bool {
	sl := s.slot(r.PC)
	return s.counters[int(sl.base)+s.ix.pattern(sl.refs, s.n, &s.code)].Taken()
}

// Update implements bp.Predictor: trains the pattern's counter with the
// outcome, then commits the branch into the instance index.
func (s *Selective) Update(r trace.Record) {
	sl := s.slot(r.PC)
	k := int(sl.base) + s.ix.pattern(sl.refs, s.n, &s.code)
	s.counters[k] = s.counters[k].Next(r.Taken)
	s.ix.push(sl.self, b2u(r.Taken), b2u(r.Backward))
}

// b2u converts a direction or flag to 0 or 1.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// extend grows the kernel column to cover addrs, resolving each newly
// seen dense ID to its slot (adding plain slots for unseen branches).
// All growth happens here, before SimulateBlock's record loop: the
// column, slot and counter arenas are sized for the new IDs up front,
// so the loop below only appends into reserved capacity.
func (s *Selective) extend(addrs []trace.Addr) {
	old := len(s.cols)
	if len(addrs) <= old {
		return
	}
	fresh := len(addrs) - old
	s.slotOf.reserve(fresh)
	cols := make([]int32, old, len(addrs))
	copy(cols, s.cols)
	slots := make([]selSlot, len(s.slots), len(s.slots)+fresh)
	copy(slots, s.slots)
	counters := make([]bp.Counter2, len(s.counters), len(s.counters)+fresh)
	copy(counters, s.counters)
	for _, pc := range addrs[old:] {
		slot, ok := s.slotOf.find(pc)
		if !ok {
			// Not assigned and not named: a plain per-branch counter.
			slot = int32(len(slots))
			slots = append(slots, selSlot{selCell: selCell{base: int32(len(counters))}})
			counters = append(counters, 0)
			s.slotOf.insert(pc, slot)
		}
		cols = append(cols, slot)
	}
	s.cols, s.slots, s.counters = cols, slots, counters
}

// SimulateBlock implements bp.KernelPredictor: the scalar
// Predict/Update pair over the block's records, with the slot of each
// record found through the dense-ID column instead of by address.
func (s *Selective) SimulateBlock(blk bp.KernelBlock, correct []int32) int {
	s.extend(blk.Addrs)
	cols, slots, counters := s.cols, s.slots, s.counters
	ids, taken, back := blk.IDs, blk.Taken, blk.Back
	ix := s.ix
	n, code := s.n, s.code
	total := 0
	for j := blk.Lo; j < blk.Hi; j++ {
		id := ids[j]
		t := taken[j>>6] >> (uint(j) & 63) & 1
		sl := &slots[cols[id]]
		k := int(sl.base) + ix.pattern(sl.refs, n, &code)
		c := counters[k]
		if c.Taken() == (t != 0) {
			correct[id]++
			total++
		}
		counters[k] = c.Next(t != 0)
		ix.push(sl.self, t, back[j>>6]>>(uint(j)&63)&1)
	}
	s.ix = ix
	return total
}

// addrTable maps static branch addresses to slot numbers through an
// open-addressed (linear-probe) table on flat slices. It is the kernel
// column's address lookup: reserve sizes it before a growth loop, after
// which find and insert never allocate.
type addrTable struct {
	keys  []trace.Addr
	vals  []int32 // slot + 1; 0 = empty
	n     int     // occupied entries
	shift uint    // 64 - log2(len(keys)), for fibonacci hashing
}

// find returns pc's slot.
func (t *addrTable) find(pc trace.Addr) (int32, bool) {
	keys, vals := t.keys, t.vals
	if len(keys) == 0 {
		return 0, false
	}
	mask := uint64(len(keys) - 1)
	for h := (uint64(pc) * 0x9E3779B97F4A7C15) >> t.shift; ; h = (h + 1) & mask {
		if vals[h] == 0 {
			return 0, false
		}
		if keys[h] == pc {
			return vals[h] - 1, true
		}
	}
}

// insert records pc -> slot for an absent pc; room must be reserved.
func (t *addrTable) insert(pc trace.Addr, slot int32) {
	keys, vals := t.keys, t.vals
	mask := uint64(len(keys) - 1)
	h := (uint64(pc) * 0x9E3779B97F4A7C15) >> t.shift
	for vals[h] != 0 {
		h = (h + 1) & mask
	}
	keys[h], vals[h] = pc, slot+1
	t.n++
}

// reserve grows the table so extra more inserts keep it at most 3/4
// full.
func (t *addrTable) reserve(extra int) {
	need := t.n + extra
	if 4*need < 3*len(t.keys) {
		return
	}
	size := 16
	for 4*need >= 3*size {
		size *= 2
	}
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]trace.Addr, size)
	t.vals = make([]int32, size)
	t.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	t.n = 0
	for i, v := range oldVals {
		if v != 0 {
			t.insert(oldKeys[i], v-1)
		}
	}
}

var _ bp.KernelPredictor = (*Selective)(nil)
