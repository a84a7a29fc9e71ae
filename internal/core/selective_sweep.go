package core

import (
	"fmt"

	"branchcorr/internal/bp"
	"branchcorr/internal/trace"
)

// SelectiveConfig is one column of a fused selective-predictor grid: a
// named Selective over its own window length, ref assignment, and state
// mode. Window sweeps (Figure 5) vary Window at a fixed Assign; figure
// panels vary Assign (history size) at a fixed Window.
type SelectiveConfig struct {
	Name   string
	Window int
	Assign Assignment
	Mode   Mode
}

// SelectiveSweep is the fused grid over a set of selective-history
// configurations: one walk of the packed columns drives every config.
//
// What is shared is the history window itself. Both tagging schemes
// resolve an entry's tag from strictly more-recent entries, so the first
// n steps of a walk over a maximal-capacity ring are exactly the walk a
// dedicated n-entry window would produce (Window.StatesWithin) — one
// ring sized to the largest config serves every window length, and the
// per-record Push is paid once instead of once per config. Per config:
// the pattern-counter tables and the ref lookups, held as dense per-ID
// columns so the per-record replay does no map access.
//
// SweepBlock is observationally identical, per config, to replaying the
// records through NewSelectiveMode(cfg...): the resolved pattern trains
// the same counter the scalar Predict/Update pair would, and the shared
// window commits the record after all configs resolved against it, the
// scalar ordering (Update pushes after training).
type SelectiveSweep struct {
	gridName string
	cfgs     []SelectiveConfig
	win      *Window
	tables   [][][]bp.Counter2 // [config][dense ID] -> pattern counters
	refs     [][][]Ref         // [config][dense ID] -> assigned refs
	states   [MaxSelectiveRefs]State
}

// NewSelectiveSweep returns a fused grid over cfgs in argument order.
// Every config needs a positive window length and at most
// MaxSelectiveRefs refs per branch.
func NewSelectiveSweep(gridName string, cfgs []SelectiveConfig) *SelectiveSweep {
	if len(cfgs) == 0 {
		panic("core: selective sweep needs at least one config")
	}
	maxWin := 0
	for _, cfg := range cfgs {
		if cfg.Window <= 0 {
			panic(fmt.Sprintf("core: selective sweep config %q window length %d must be positive", cfg.Name, cfg.Window))
		}
		maxWin = max(maxWin, cfg.Window)
		for pc, refs := range cfg.Assign {
			if len(refs) > MaxSelectiveRefs {
				panic(fmt.Sprintf("core: branch 0x%x assigned %d refs, max %d",
					uint32(pc), len(refs), MaxSelectiveRefs))
			}
		}
	}
	return &SelectiveSweep{
		gridName: gridName,
		cfgs:     append([]SelectiveConfig(nil), cfgs...),
		win:      NewWindow(maxWin),
		tables:   make([][][]bp.Counter2, len(cfgs)),
		refs:     make([][][]Ref, len(cfgs)),
	}
}

// GridName implements bp.SweepGrid.
func (g *SelectiveSweep) GridName() string { return g.gridName }

// ConfigNames implements bp.SweepGrid.
func (g *SelectiveSweep) ConfigNames() []string {
	out := make([]string, len(g.cfgs))
	for c, cfg := range g.cfgs {
		out[c] = cfg.Name
	}
	return out
}

// Configs implements bp.SweepGrid.
func (g *SelectiveSweep) Configs() []bp.Predictor {
	out := make([]bp.Predictor, len(g.cfgs))
	for c, cfg := range g.cfgs {
		out[c] = NewSelectiveMode(cfg.Name, cfg.Window, cfg.Assign, cfg.Mode)
	}
	return out
}

// Shard implements bp.SweepGrid: a fresh fused grid over the configs
// [lo, hi) (each shard owns a private window, which is exact: the window
// contents are stream-determined).
func (g *SelectiveSweep) Shard(lo, hi int) bp.SweepGrid {
	checkSelShardRange(lo, hi, len(g.cfgs))
	return NewSelectiveSweep(g.gridName, g.cfgs[lo:hi])
}

func checkSelShardRange(lo, hi, n int) {
	if lo < 0 || hi > n || lo >= hi {
		panic(fmt.Sprintf("core: sweep shard range [%d,%d) invalid for %d configs", lo, hi, n))
	}
}

// extend grows each config's per-ID ref and table columns to cover
// addrs, computing entries only for newly interned IDs. Tables are
// pre-created here (pow3-sized by ref count) so the replay loop never
// allocates; the amortized-doubling growth mirrors the bp sweep columns.
func (g *SelectiveSweep) extend(addrs []trace.Addr) {
	for c := range g.cfgs {
		if len(addrs) <= len(g.refs[c]) {
			continue
		}
		refs := make([][]Ref, len(addrs), max(len(addrs), 2*cap(g.refs[c])))
		tables := make([][]bp.Counter2, len(addrs), cap(refs))
		copy(refs, g.refs[c])
		copy(tables, g.tables[c])
		assign := g.cfgs[c].Assign
		for id := len(g.refs[c]); id < len(addrs); id++ {
			r := assign[addrs[id]]
			refs[id] = r
			tables[id] = make([]bp.Counter2, pow3[len(r)])
		}
		g.refs[c] = refs
		g.tables[c] = tables
	}
}

// SweepBlock implements bp.SweepGrid.
func (g *SelectiveSweep) SweepBlock(blk bp.KernelBlock, correct []int32) {
	g.extend(blk.Addrs)
	win := g.win
	cfgs := g.cfgs
	correct = correct[:len(cfgs)]
	for j := blk.Lo; j < blk.Hi; j++ {
		id := blk.IDs[j]
		taken := blk.Taken[j>>6]>>(uint(j)&63)&1 != 0
		for c := range cfgs {
			refs := g.refs[c][id]
			tbl := g.tables[c][id]
			idx := 0
			if len(refs) > 0 {
				st := g.states[:len(refs)]
				win.StatesWithin(cfgs[c].Window, refs, st)
				if cfgs[c].Mode == ModePresence {
					for i := len(refs) - 1; i >= 0; i-- {
						idx <<= 1
						if st[i] != StateAbsent {
							idx |= 1
						}
					}
				} else {
					for i := len(refs) - 1; i >= 0; i-- {
						idx = idx*NumStates + int(st[i])
					}
				}
			}
			cnt := tbl[idx]
			if cnt.Taken() == taken {
				correct[c]++
			}
			tbl[idx] = cnt.Next(taken)
		}
		win.Push(trace.Record{
			PC:       blk.Addrs[id],
			Taken:    taken,
			Backward: blk.Back[j>>6]>>(uint(j)&63)&1 != 0,
		})
	}
}

var _ bp.SweepGrid = (*SelectiveSweep)(nil)
