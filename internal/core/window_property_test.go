package core

import (
	"math/rand"
	"testing"

	"branchcorr/internal/trace"
)

// refWindowModel is a brute-force reference implementation of the
// window's tag semantics: it keeps the raw record list and recomputes
// tags from scratch for every query.
type refWindowModel struct {
	recs []trace.Record // oldest first
	n    int
}

func (m *refWindowModel) push(r trace.Record) {
	m.recs = append(m.recs, r)
	if len(m.recs) > m.n {
		m.recs = m.recs[1:]
	}
}

// stateOf resolves a ref by brute force (most recent match wins). Tags
// beyond MaxTag name no instance.
func (m *refWindowModel) stateOf(ref Ref) State {
	if ref.Tag > MaxTag {
		return StateAbsent
	}
	occ := map[trace.Addr]int{}
	backs := 0
	for i := len(m.recs) - 1; i >= 0; i-- {
		r := m.recs[i]
		switch ref.Scheme {
		case Occurrence:
			if r.PC == ref.PC && occ[r.PC] == int(ref.Tag) {
				return stateOf(r.Taken)
			}
		case BackwardCount:
			if r.PC == ref.PC && backs == int(ref.Tag) {
				return stateOf(r.Taken)
			}
		}
		occ[r.PC]++
		if r.Backward && r.Taken {
			backs++
		}
	}
	return StateAbsent
}

// TestWindowMatchesBruteForce drives the production window and the
// reference model with identical random streams and compares State
// resolution for random refs at every step.
func TestWindowMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(24)
		w := NewWindow(n)
		ref := &refWindowModel{n: n}
		pcs := []trace.Addr{0x10, 0x14, 0x18, 0x1C, 0x20}
		for step := 0; step < 400; step++ {
			// Query a few random refs before pushing.
			for q := 0; q < 4; q++ {
				r := Ref{
					PC:     pcs[rng.Intn(len(pcs))],
					Scheme: Scheme(rng.Intn(2)),
					Tag:    uint8(rng.Intn(MaxTag + 1)),
				}
				var got [1]State
				w.States([]Ref{r}, got[:])
				if want := ref.stateOf(r); got[0] != want {
					t.Fatalf("trial %d step %d: ref %v: window %v, brute force %v",
						trial, step, r, got[0], want)
				}
			}
			rec := trace.Record{
				PC:       pcs[rng.Intn(len(pcs))],
				Taken:    rng.Intn(2) == 0,
				Backward: rng.Intn(4) == 0,
			}
			w.Push(rec)
			ref.push(rec)
		}
	}
}

// TestVisitConsistentWithStates checks that every ref Visit emits
// resolves (via States) to the taken value Visit reported.
func TestVisitConsistentWithStates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := NewWindow(16)
	pcs := []trace.Addr{0x10, 0x14, 0x18}
	for step := 0; step < 300; step++ {
		w.Push(trace.Record{
			PC:       pcs[rng.Intn(len(pcs))],
			Taken:    rng.Intn(2) == 0,
			Backward: rng.Intn(3) == 0,
		})
		w.Visit(func(ref Ref, taken bool) bool {
			var got [1]State
			w.States([]Ref{ref}, got[:])
			if got[0] != stateOf(taken) {
				t.Fatalf("step %d: Visit says %v=%v but States says %v",
					step, ref, stateOf(taken), got[0])
			}
			return true
		})
	}
}

// TestInstIndexMatchesBruteForce drives the instance index, the
// reference Window and the brute-force model with identical random
// streams and compares every resolution. The index is queried before
// each push for random refs at random window lengths 1..64 and tags
// 0..40 (beyond MaxTag too), over PCs that are frequent, that first
// appear late in the stream, that are named but never appear, and
// alongside untracked PCs the index keeps no history for. Loop density
// varies per trial so backward counts both stay small and run far past
// MaxTag.
func TestInstIndexMatchesBruteForce(t *testing.T) {
	const late, never = trace.Addr(0x40), trace.Addr(0x44)
	rng := rand.New(rand.NewSource(1998))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(64)
		model := &refWindowModel{n: n}
		w := NewWindow(n)
		tracked := []trace.Addr{0x10, 0x14, 0x18, late, never}
		hists := map[trace.Addr]*instHist{}
		for _, pc := range tracked {
			hists[pc] = new(instHist)
		}
		histOf := func(pc trace.Addr) *instHist { return hists[pc] }
		stream := []trace.Addr{0x10, 0x14, 0x18, 0x20, 0x24} // 0x2x untracked
		backEvery := 1 + rng.Intn(8)
		var ix instIndex
		for step := 0; step < 600; step++ {
			if step == 300 {
				stream = append(stream, late)
			}
			for q := 0; q < 6; q++ {
				r := Ref{
					PC:     tracked[rng.Intn(len(tracked))],
					Scheme: Scheme(rng.Intn(2)),
					Tag:    uint8(rng.Intn(41)),
				}
				want := model.stateOf(r)
				var spec [1]State
				w.States([]Ref{r}, spec[:])
				if spec[0] != want {
					t.Fatalf("trial %d step %d: ref %v: window %v, brute force %v", trial, step, r, spec[0], want)
				}
				if got := ix.state(bindRef(r, histOf), uint64(n)); got != want {
					t.Fatalf("trial %d (n=%d) step %d: ref %v: index %v, brute force %v",
						trial, n, step, r, got, want)
				}
			}
			rec := trace.Record{
				PC:       stream[rng.Intn(len(stream))],
				Taken:    rng.Intn(2) == 0,
				Backward: rng.Intn(backEvery) == 0,
			}
			model.push(rec)
			w.Push(rec)
			ix.push(hists[rec.PC], b2u(rec.Taken), b2u(rec.Backward))
		}
	}
}
