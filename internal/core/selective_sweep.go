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
// What is shared is the instance index (instindex.go). A window length
// only sets the cutoff a ref's instance must pass, so one index fed the
// stream once serves every config's window, and the per-record push is
// paid once instead of once per config. Per config: the pattern counters
// and the bound refs, held as dense per-ID cells so the per-record
// replay does no map access.
//
// SweepBlock is observationally identical, per config, to replaying the
// records through NewSelectiveMode(cfg...): the resolved pattern trains
// the same counter the scalar Predict/Update pair would, and the shared
// index commits the record after all configs resolved against it, the
// scalar ordering (Update pushes after training).
type SelectiveSweep struct {
	gridName string
	cfgs     []SelectiveConfig
	wins     []uint64   // per-config window length
	codes    []modeCode // per-config pattern digits
	hists    map[trace.Addr]*instHist
	bound    []map[trace.Addr][]histRef // per config: branch -> bound refs
	ix       instIndex
	self     []*instHist   // [dense ID] -> own history (nil if unnamed)
	cells    []selCell     // [dense ID*len(cfgs) + config]
	counters []bp.Counter2 // every cell's pattern counters, back to back
}

// selCell is one branch under one config: its bound refs and the offset
// of its pattern counters in the grid's counter arena.
type selCell struct {
	refs []histRef
	base int32
}

// NewSelectiveSweep returns a fused grid over cfgs in argument order.
// Every config needs a positive window length and at most
// MaxSelectiveRefs refs per branch.
func NewSelectiveSweep(gridName string, cfgs []SelectiveConfig) *SelectiveSweep {
	if len(cfgs) == 0 {
		panic("core: selective sweep needs at least one config")
	}
	g := &SelectiveSweep{
		gridName: gridName,
		cfgs:     append([]SelectiveConfig(nil), cfgs...),
		wins:     make([]uint64, len(cfgs)),
		codes:    make([]modeCode, len(cfgs)),
		hists:    make(map[trace.Addr]*instHist),
		bound:    make([]map[trace.Addr][]histRef, len(cfgs)),
	}
	for c, cfg := range cfgs {
		if cfg.Window <= 0 {
			panic(fmt.Sprintf("core: selective sweep config %q window length %d must be positive", cfg.Name, cfg.Window))
		}
		checkAssignment(cfg.Assign)
		for pc, h := range namedHists(cfg.Assign) {
			if g.hists[pc] == nil {
				g.hists[pc] = h
			}
		}
		g.wins[c] = uint64(cfg.Window)
		g.codes[c] = codeOf(cfg.Mode)
	}
	for c, cfg := range cfgs {
		g.bound[c] = make(map[trace.Addr][]histRef, len(cfg.Assign))
		for pc, refs := range cfg.Assign {
			g.bound[c][pc] = bindRefs(refs, g.hists)
		}
	}
	return g
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
// [lo, hi) (each shard owns a private instance index, which is exact:
// the index contents are stream-determined).
func (g *SelectiveSweep) Shard(lo, hi int) bp.SweepGrid {
	checkSelShardRange(lo, hi, len(g.cfgs))
	return NewSelectiveSweep(g.gridName, g.cfgs[lo:hi])
}

func checkSelShardRange(lo, hi, n int) {
	if lo < 0 || hi > n || lo >= hi {
		panic(fmt.Sprintf("core: sweep shard range [%d,%d) invalid for %d configs", lo, hi, n))
	}
}

// extend grows the per-ID columns to cover addrs, computing cells only
// for newly interned IDs. Counters are laid out here (pow3-sized by ref
// count) so the replay loop never allocates; the amortized-doubling
// growth mirrors the bp sweep columns.
func (g *SelectiveSweep) extend(addrs []trace.Addr) {
	old := len(g.self)
	if len(addrs) <= old {
		return
	}
	ncfg := len(g.cfgs)
	self := make([]*instHist, old, max(len(addrs), 2*cap(g.self)))
	copy(self, g.self)
	cells := make([]selCell, old*ncfg, cap(self)*ncfg)
	copy(cells, g.cells)
	for _, pc := range addrs[old:] {
		self = append(self, g.hists[pc])
		for c := range g.cfgs {
			refs := g.bound[c][pc]
			cells = append(cells, selCell{refs: refs, base: int32(len(g.counters))})
			g.counters = append(g.counters, make([]bp.Counter2, pow3[len(refs)])...)
		}
	}
	g.self, g.cells = self, cells
}

// SweepBlock implements bp.SweepGrid.
func (g *SelectiveSweep) SweepBlock(blk bp.KernelBlock, correct []int32) {
	g.extend(blk.Addrs)
	ncfg := len(g.cfgs)
	correct = correct[:ncfg]
	wins, codes := g.wins[:ncfg], g.codes[:ncfg]
	self, cells, counters := g.self, g.cells, g.counters
	ids, taken, back := blk.IDs, blk.Taken, blk.Back
	ix := g.ix
	for j := blk.Lo; j < blk.Hi; j++ {
		id := int(ids[j])
		t := taken[j>>6] >> (uint(j) & 63) & 1
		row := cells[id*ncfg : id*ncfg+ncfg]
		for c := range row {
			k := int(row[c].base) + ix.pattern(row[c].refs, wins[c], &codes[c])
			cnt := counters[k]
			if cnt.Taken() == (t != 0) {
				correct[c]++
			}
			counters[k] = cnt.Next(t != 0)
		}
		ix.push(self[id], t, back[j>>6]>>(uint(j)&63)&1)
	}
	g.ix = ix
}

var _ bp.SweepGrid = (*SelectiveSweep)(nil)
