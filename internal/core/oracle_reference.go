package core

import (
	"sort"

	"branchcorr/internal/trace"
)

// This file is the oracle's executable specification: the original
// map-and-closure implementation, kept verbatim so the columnar kernels
// in oracle_kernel.go can be differential-tested against it. The
// reference streams the trace three times (profile, pairs, triples) and
// pays a map lookup per (record × window entry); the kernels stream
// twice over the packed view and must produce bit-identical Candidates
// and Selections. Do not "optimize" this file — its value is being the
// slow, obviously-correct transcription of sections 3.2–3.4.

// candStats accumulates, for one (current branch, candidate ref) pair,
// the joint distribution of the candidate's present-state and the current
// branch's outcome: cnt[state][outcome], state in {T, N}, outcome in
// {T, N}. Absent counts are derived from the branch totals.
type candStats struct {
	cnt [2][2]uint32
}

// branchProfile is the pass-1 state for one static branch.
type branchProfile struct {
	total [2]uint32 // outcome totals: [taken, not-taken]
	cands map[Ref]*candStats
}

// profileScore is the number of correct predictions an ideal statically
// filled PHT would make for this branch using only the candidate's
// 3-valued state: for each state, the majority outcome count.
func (p *branchProfile) profileScore(r Ref) uint32 {
	cs := p.cands[r]
	if cs == nil {
		return 0
	}
	score := uint32(0)
	var present [2]uint32 // presence per outcome
	for s := 0; s < 2; s++ {
		score += max32(cs.cnt[s][0], cs.cnt[s][1])
		present[0] += cs.cnt[s][0]
		present[1] += cs.cnt[s][1]
	}
	return score + max32(p.total[0]-present[0], p.total[1]-present[1])
}

// prune keeps only the maxKeep candidates with the highest presence
// counts.
func (p *branchProfile) prune(maxKeep int) {
	if len(p.cands) <= maxKeep {
		return
	}
	type kv struct {
		ref  Ref
		pres uint32
	}
	all := make([]kv, 0, len(p.cands))
	for ref, cs := range p.cands {
		pres := cs.cnt[0][0] + cs.cnt[0][1] + cs.cnt[1][0] + cs.cnt[1][1]
		all = append(all, kv{ref, pres})
	}
	// Total order (presence, then ref identity): equal-presence ties must
	// not be broken by map iteration order, or the surviving candidate set
	// would differ run to run.
	sort.Slice(all, func(i, j int) bool {
		if all[i].pres != all[j].pres {
			return all[i].pres > all[j].pres
		}
		return refLess(all[i].ref, all[j].ref)
	})
	for _, e := range all[maxKeep:] {
		delete(p.cands, e.ref)
	}
}

// ReferenceProfileCandidates is the pre-kernel ProfileCandidates: one
// trace stream, a closure-based window walk, and a per-branch
// map[Ref]*candStats. Differential tests pin the kernel against it.
func ReferenceProfileCandidates(t *trace.Trace, cfg OracleConfig) map[trace.Addr]*Candidates {
	cfg = cfg.withDefaults()
	window := NewWindow(cfg.WindowLen)
	profiles := make(map[trace.Addr]*branchProfile)
	pt := t.Packed()
	for i := range pt.Len() {
		r := pt.Record(i)
		p := profiles[r.PC]
		if p == nil {
			p = &branchProfile{cands: make(map[Ref]*candStats)}
			profiles[r.PC] = p
		}
		out := 0
		if !r.Taken {
			out = 1
		}
		p.total[out]++
		window.Visit(func(ref Ref, taken bool) bool {
			if !cfg.schemeAllowed(ref.Scheme) {
				return true
			}
			cs := p.cands[ref]
			if cs == nil {
				if len(p.cands) >= 2*cfg.MaxCandidates {
					p.prune(cfg.MaxCandidates)
				}
				cs = &candStats{}
				p.cands[ref] = cs
			}
			s := 0
			if !taken {
				s = 1
			}
			cs.cnt[s][out]++
			return true
		})
		window.Push(r)
	}

	result := make(map[trace.Addr]*Candidates, len(profiles))
	for pc, p := range profiles {
		all := make([]scoredRef, 0, len(p.cands))
		for ref, cs := range p.cands {
			pres := cs.cnt[0][0] + cs.cnt[0][1] + cs.cnt[1][0] + cs.cnt[1][1]
			// rankCandidates totally orders the slice before use.
			all = append(all, scoredRef{ref, p.profileScore(ref), pres}) //bplint:ignore det-map-order rankCandidates totally orders the slice before any consumer sees it
		}
		result[pc] = rankCandidates(all, int(p.total[0]+p.total[1]), cfg.TopK)
	}
	return result
}

// scoredRef is one profiled candidate ready for beam ranking.
type scoredRef struct {
	ref      Ref
	score    uint32
	presence uint32
}

// rankCandidates orders a branch's profiled candidates into its beam.
// The beam mixes two rankings. The first half is the singly-best
// candidates by profile score. The second half favors presence and small
// tags: for purely interacting correlations (X = Y AND Z, X = Y XOR Z)
// no single ref scores above noise, so score rank is arbitrary — but the
// components of real interactions are close to the branch and frequently
// in its window (section 3.6.2: "the most correlated branches are close
// together"), so nearby ever-present refs are the right tie-break.
//
// Both the reference and kernel implementations feed this ranking; it
// runs once per static branch, off the per-record hot path.
func rankCandidates(all []scoredRef, total, topK int) *Candidates {
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return refLess(all[i].ref, all[j].ref) // deterministic ties
	})
	c := &Candidates{Total: total}
	k := topK
	if k > len(all) {
		k = len(all)
	}
	scoreHalf := (k + 1) / 2
	taken := make(map[Ref]bool, k)
	for _, e := range all[:scoreHalf] {
		c.Refs = append(c.Refs, e.ref)
		c.Scores = append(c.Scores, e.score)
		taken[e.ref] = true
	}
	rest := make([]scoredRef, 0, len(all)-scoreHalf)
	rest = append(rest, all[scoreHalf:]...)
	sort.Slice(rest, func(i, j int) bool {
		if rest[i].presence != rest[j].presence {
			return rest[i].presence > rest[j].presence
		}
		if rest[i].ref.Tag != rest[j].ref.Tag {
			return rest[i].ref.Tag < rest[j].ref.Tag
		}
		return refLess(rest[i].ref, rest[j].ref)
	})
	for _, e := range rest {
		if len(c.Refs) >= k {
			break
		}
		if taken[e.ref] {
			continue
		}
		c.Refs = append(c.Refs, e.ref)
		c.Scores = append(c.Scores, e.score)
	}
	return c
}

// jointPass streams the trace once and tabulates, for every branch and
// every listed ref subset, the exact joint (state-vector → outcome)
// distribution. subsets[pc] lists index tuples into cands[pc].Refs;
// counts are returned as flattened [subset][pattern][outcome] arrays.
func jointPass(t *trace.Trace, cands map[trace.Addr]*Candidates,
	subsets map[trace.Addr][][]int, windowLen int) map[trace.Addr][][]uint32 {
	counts := make(map[trace.Addr][][]uint32, len(subsets))
	for pc, subs := range subsets {
		arr := make([][]uint32, len(subs))
		for i, sub := range subs {
			arr[i] = make([]uint32, pow3[len(sub)]*2)
		}
		counts[pc] = arr
	}
	window := NewWindow(windowLen)
	var states [maxTopK]State
	pt := t.Packed()
	for i := range pt.Len() {
		r := pt.Record(i)
		subs := subsets[r.PC]
		if subs != nil {
			refs := cands[r.PC].Refs
			st := states[:len(refs)]
			window.States(refs, st)
			out := 0
			if !r.Taken {
				out = 1
			}
			arr := counts[r.PC]
			for si, sub := range subs {
				idx := 0
				for j := len(sub) - 1; j >= 0; j-- {
					idx = idx*NumStates + int(st[sub[j]])
				}
				arr[si][idx*2+out]++
			}
		}
		window.Push(r)
	}
	return counts
}

// ReferenceSelectRefs is the pre-kernel SelectRefs: two further trace
// streams (all pairs, then triple extensions of the best pair), each a
// full jointPass. Differential tests pin the kernel against it.
func ReferenceSelectRefs(t *trace.Trace, cands map[trace.Addr]*Candidates, cfg OracleConfig) *Selections {
	cfg = cfg.withDefaults()

	// Pass 2: all pairs among the beam.
	pairSubs := make(map[trace.Addr][][]int, len(cands))
	for pc, c := range cands {
		n := len(c.Refs)
		if n == 0 {
			continue
		}
		var subs [][]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				subs = append(subs, []int{i, j})
			}
		}
		if len(subs) == 0 {
			subs = [][]int{{0}} // single candidate: keep a size-1 subset
		}
		pairSubs[pc] = subs
	}
	pairCounts := jointPass(t, cands, pairSubs, cfg.WindowLen)

	type chosen struct {
		pair      []int
		pairScore uint32
	}
	bestPairs := make(map[trace.Addr]chosen, len(cands))
	for pc, subs := range pairSubs {
		arr := pairCounts[pc]
		var best chosen
		for si, sub := range subs {
			if s := subsetScore(arr[si]); best.pair == nil || s > best.pairScore {
				best = chosen{pair: sub, pairScore: s}
			}
		}
		bestPairs[pc] = best
	}

	// Pass 3: extend each branch's best pair with every remaining beam
	// candidate.
	tripleSubs := make(map[trace.Addr][][]int, len(cands))
	for pc, best := range bestPairs {
		if len(best.pair) < 2 {
			continue // single-candidate branch: no triples
		}
		n := len(cands[pc].Refs)
		var subs [][]int
		for i := 0; i < n; i++ {
			if i == best.pair[0] || i == best.pair[1] {
				continue
			}
			tri := []int{best.pair[0], best.pair[1], i}
			sort.Ints(tri)
			subs = append(subs, tri)
		}
		if len(subs) > 0 {
			tripleSubs[pc] = subs
		}
	}
	tripleCounts := jointPass(t, cands, tripleSubs, cfg.WindowLen)

	sel := &Selections{}
	for k := 1; k <= MaxSelectiveRefs; k++ {
		sel.BySize[k] = make(Assignment, len(cands))
	}
	for pc, c := range cands {
		if len(c.Refs) == 0 {
			continue
		}
		// Size 1: pass 1's exact single scores cover all candidates.
		sel.BySize[1][pc] = []Ref{c.Refs[0]}

		// Size 2: the exact best pair (or the lone candidate).
		best := bestPairs[pc]
		pairRefs := make([]Ref, len(best.pair))
		for i, ri := range best.pair {
			pairRefs[i] = c.Refs[ri]
		}
		sel.BySize[2][pc] = pairRefs

		// Size 3: the best greedy extension if it improves on the pair,
		// else the pair itself.
		chosenTriple := pairRefs
		bestScore := best.pairScore
		if subs, ok := tripleSubs[pc]; ok {
			arr := tripleCounts[pc]
			for si, sub := range subs {
				if s := subsetScore(arr[si]); s > bestScore {
					bestScore = s
					tri := make([]Ref, 3)
					for i, ri := range sub {
						tri[i] = c.Refs[ri]
					}
					chosenTriple = tri
				}
			}
		}
		sel.BySize[3][pc] = chosenTriple
	}
	return sel
}

// ReferenceBuildSelective is the pre-kernel BuildSelective: three full
// trace streams end to end.
func ReferenceBuildSelective(t *trace.Trace, cfg OracleConfig) *Selections {
	return ReferenceSelectRefs(t, ReferenceProfileCandidates(t, cfg), cfg)
}
