package core

import "branchcorr/internal/trace"

// This file is the selective-history resolver every fast consumer
// shares: the selective predictor (scalar calls and its batched
// kernel), the fused window-length sweep, and the oracle's select pass.
// Window (tags.go) stays the executable specification; the resolver
// answers the same question — "what state does ref A/occ o or A/back b
// have among the last n records?" — in O(1) per ref at any window
// length, instead of walking the window.
//
// Two global counters advance on every pushed record: seq (records
// pushed) and tb (taken backward branches pushed). Only PCs some ref
// names keep a history (instHist); every other record costs the two
// counter updates, so memory grows with the named PCs, not with the
// trace's static branch count.
//
//   - Occurrence: A/occ o is the o-th most recent instance of A, because
//     an instance's occurrence tag counts the more recent instances of
//     its own address. A ring of A's last MaxTag+1 instances holds every
//     nameable one.
//   - BackwardCount: an instance's backward tag is tb − tbAfter, where
//     tbAfter is tb just after the instance was pushed (the instance
//     itself excluded, as its own taken-backward bit is in tbAfter).
//     A/back b is therefore the most recent instance of A with tbAfter
//     = tb − b. A's instances land in slot tbAfter & MaxTag, newest
//     wins; a slot can only be overwritten for the same tbAfter or by
//     one at least MaxTag+1 segments newer, which no nameable tag can
//     reach, so the slot holding tbAfter = tb − b is exact.
//   - Window: the instance pushed as record p (0-based) sits seq−1−p
//     entries back, so it is inside an n-record window iff seq − p ≤ n.
//     Both tags depend only on more recent records, so a window length
//     is just this cutoff — the prefix property one index rests on to
//     serve every window length of a sweep.
//
// Tags above MaxTag, b > tb, and PCs never pushed resolve to
// StateAbsent, exactly as Window.States does.

// Ring and slot indexing below masks with MaxTag: MaxTag+1 must be a
// power of two (a negative array length fails to compile otherwise).
var _ [1 - 2*((MaxTag+1)&MaxTag)]struct{}

// instIndex is the resolver's global state: the record and
// taken-backward counters every history is read against.
type instIndex struct {
	seq uint64 // records pushed
	tb  uint64 // taken backward branches pushed
}

// instHist is one named PC's instance history. Each instance is packed
// as pos<<1 | taken, pos being the record's 0-based push position.
type instHist struct {
	count uint64              // instances pushed
	occ   [MaxTag + 1]uint64  // last MaxTag+1 instances, ring indexed by count
	seg   [MaxTag + 1]segInst // newest instance per backward segment, by tbAfter & MaxTag
}

// segInst is the newest instance of one backward segment.
type segInst struct {
	key  uint64 // the segment's tbAfter + 1; 0 = never written
	inst uint64 // pos<<1 | taken
}

// histRef is a Ref bound to its address's history. A nil history never
// resolves: the ref names a tag above MaxTag or a PC the index does not
// track.
type histRef struct {
	h    *instHist
	back bool
	tag  uint8
}

// bindRef binds r to the history histOf returns for its PC (nil when
// untracked), creating none for refs no window can name.
func bindRef(r Ref, histOf func(trace.Addr) *instHist) histRef {
	if r.Tag > MaxTag {
		return histRef{}
	}
	return histRef{h: histOf(r.PC), back: r.Scheme == BackwardCount, tag: r.Tag}
}

// push commits one record: its PC's history h (nil when no ref names
// it), direction t (0 or 1) and backward flag bk (0 or 1).
func (ix *instIndex) push(h *instHist, t, bk uint64) {
	p := ix.seq
	ix.seq++
	ix.tb += t & bk
	if h == nil {
		return
	}
	v := p<<1 | t
	h.occ[h.count&MaxTag] = v
	h.count++
	h.seg[ix.tb&MaxTag] = segInst{key: ix.tb + 1, inst: v}
}

// inst returns the instance r names, packed pos<<1 | taken, or false
// when r names none at any window length. The instance lies inside an
// n-record window iff seq − pos ≤ n.
func (ix *instIndex) inst(r histRef) (uint64, bool) {
	h := r.h
	if h == nil {
		return 0, false
	}
	if r.back {
		b := uint64(r.tag)
		if b > ix.tb {
			return 0, false
		}
		s := h.seg[(ix.tb-b)&MaxTag]
		if s.key != ix.tb-b+1 {
			return 0, false
		}
		return s.inst, true
	}
	o := uint64(r.tag)
	if o >= h.count {
		return 0, false
	}
	return h.occ[(h.count-1-o)&MaxTag], true
}

// state resolves r among the last n records pushed.
func (ix *instIndex) state(r histRef, n uint64) State {
	v, ok := ix.inst(r)
	if !ok || ix.seq-(v>>1) > n {
		return StateAbsent
	}
	return State(v&1 ^ 1) // taken 1 -> StateTaken 0
}

// modeCode folds a Mode into pattern arithmetic: each ref contributes
// one digit in the mode's radix.
type modeCode struct {
	radix int
	digit [NumStates]uint8 // State -> digit
}

// codeOf returns the pattern digits of a mode: the State itself in
// direction mode (radix 3), in-path presence in presence mode (radix 2).
// Any mode other than ModePresence indexes like ModeDirection.
func codeOf(m Mode) modeCode {
	if m == ModePresence {
		return modeCode{radix: 2, digit: [NumStates]uint8{StateTaken: 1, StateNotTaken: 1, StateAbsent: 0}}
	}
	return modeCode{radix: NumStates, digit: [NumStates]uint8{StateTaken: 0, StateNotTaken: 1, StateAbsent: 2}}
}

// pattern resolves refs among the last n records and folds their
// states into a pattern-table index, ref 0 the least significant digit.
func (ix *instIndex) pattern(refs []histRef, n uint64, m *modeCode) int {
	idx := 0
	for i := len(refs) - 1; i >= 0; i-- {
		idx = idx*m.radix + int(m.digit[ix.state(refs[i], n)])
	}
	return idx
}
