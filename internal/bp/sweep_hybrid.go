package bp

import "fmt"

// HybridSweep is the fused McFarling-hybrid grid: gshare(gb) + bimodal
// combined under a per-config chooser, one config per gshare history
// length at a fixed bimodal table size and chooser size.
//
// Sharing follows the component arguments. The bimodal component always
// trains (Hybrid.Update updates both components unconditionally), so
// its table is stream-determined and one copy serves every config; the
// unmasked global history register is shared exactly as in GshareSweep.
// Per config: the gshare PHT and the chooser table — the chooser's
// training depends on the config's gshare prediction, so it cannot be
// shared even at a fixed size.
//
// The shared pass reads the bimodal prediction (pre-update, the order
// Hybrid.Update observes), trains the bimodal counter, and stages
// key<<2 | pb<<1 | t per record — gshare key pre-masked to the widest
// config, bimodal prediction bit, outcome bit. Each config's replay
// recovers its own gshare counter and chooser entry (chooser index
// recomputed from the shared pcx column), selects, counts, and trains
// chooser then PHT in the scalar order.
type HybridSweep struct {
	gbits       []uint
	gmasks      []uint32
	phts        [][]Counter2
	choosers    [][]Counter2
	btbl        []Counter2
	bmask       uint32
	cmask       uint32
	bimodalBits uint
	chooserBits uint
	kmax        uint32
	history     uint32
	pcx         []uint32
	scratch     sweepScratch
}

// NewHybridSweep returns a fused grid of hybrid(gshare(b), bimodal,
// chooser) configs, one per entry of gshareBits (each within NewGshare's
// [1,26] range), in argument order, sharing one bimodal component of
// 2^bimodalBits counters and per-config choosers of 2^chooserBits
// counters.
func NewHybridSweep(gshareBits []uint, bimodalBits, chooserBits uint) *HybridSweep {
	if len(gshareBits) == 0 {
		panic("bp: hybrid sweep needs at least one config")
	}
	if bimodalBits == 0 || bimodalBits > 30 {
		panic(fmt.Sprintf("bp: bimodal table bits %d out of range [1,30]", bimodalBits))
	}
	if chooserBits == 0 || chooserBits > 26 {
		panic(fmt.Sprintf("bp: hybrid chooser bits %d out of range [1,26]", chooserBits))
	}
	gmasks := make([]uint32, len(gshareBits))
	phts := make([][]Counter2, len(gshareBits))
	choosers := make([][]Counter2, len(gshareBits))
	kmax := uint32(0)
	for c, b := range gshareBits {
		if b == 0 || b > 26 {
			panic(fmt.Sprintf("bp: gshare history bits %d out of range [1,26]", b))
		}
		gmasks[c] = 1<<b - 1
		phts[c] = make([]Counter2, 1<<b)
		ch := make([]Counter2, 1<<chooserBits)
		for i := range ch {
			ch[i] = WeaklyNotTaken // NewHybrid's neutral chooser start
		}
		choosers[c] = ch
		kmax |= gmasks[c]
	}
	return &HybridSweep{
		gbits:       append([]uint(nil), gshareBits...),
		gmasks:      gmasks,
		phts:        phts,
		choosers:    choosers,
		btbl:        make([]Counter2, 1<<bimodalBits),
		bmask:       1<<bimodalBits - 1,
		cmask:       1<<chooserBits - 1,
		bimodalBits: bimodalBits,
		chooserBits: chooserBits,
		kmax:        kmax,
		scratch:     newSweepScratch(),
	}
}

// GridName implements SweepGrid.
func (g *HybridSweep) GridName() string {
	return fmt.Sprintf("hybrid-gshare(%d configs, %d..%d bits, bimodal %d, chooser %d)",
		len(g.gbits), g.gbits[0], g.gbits[len(g.gbits)-1], g.bimodalBits, g.chooserBits)
}

// ConfigNames implements SweepGrid; names match Hybrid.Name over the
// component names.
func (g *HybridSweep) ConfigNames() []string {
	out := make([]string, len(g.gbits))
	for c, b := range g.gbits {
		out[c] = fmt.Sprintf("hybrid(gshare(%d),bimodal(%d),%d)", b, g.bimodalBits, g.chooserBits)
	}
	return out
}

// Configs implements SweepGrid.
func (g *HybridSweep) Configs() []Predictor {
	out := make([]Predictor, len(g.gbits))
	for c, b := range g.gbits {
		out[c] = NewHybrid(NewGshare(b), NewBimodal(g.bimodalBits), g.chooserBits)
	}
	return out
}

// Shard implements SweepGrid: a fresh fused grid over the gshare
// history lengths [lo, hi) (each shard owns a private bimodal table,
// which is exact: the bimodal component is stream-determined).
func (g *HybridSweep) Shard(lo, hi int) SweepGrid {
	checkShardRange(lo, hi, len(g.gbits))
	return NewHybridSweep(g.gbits[lo:hi], g.bimodalBits, g.chooserBits)
}

// SweepBlock implements SweepGrid.
//
//bplint:hot
func (g *HybridSweep) SweepBlock(blk KernelBlock, correct []int32) {
	g.pcx = extendPcx(g.pcx, blk.Addrs)
	pcx := g.pcx
	phts := g.phts
	choosers := g.choosers
	gmasks := g.gmasks
	correct = correct[:len(phts)]
	btbl := g.btbl
	bmask := g.bmask
	cmask := g.cmask
	kmax := g.kmax
	taken := blk.Taken
	ids := blk.IDs
	kt := g.scratch.kt
	h := g.history
	for lo := blk.Lo; lo < blk.Hi; lo += sweepTile {
		hi := min(lo+sweepTile, blk.Hi)
		tids := ids[lo:hi]
		kk := kt[:len(tids)]
		j := lo
		for i := range kk {
			t := uint32(taken[j>>6] >> (uint(j) & 63) & 1)
			x := pcx[tids[i]]
			bc := btbl[x&bmask]
			kk[i] = ((x^h)&kmax)<<2 | uint32(bc>>1)<<1 | t
			btbl[x&bmask] = Counter2(sweepStep[uint8(bc)<<1|uint8(t)] >> 1)
			h = h<<1 | t
			j++
		}
		for c := range phts {
			pht := phts[c]
			ch := choosers[c]
			m := gmasks[c]
			n := int32(0)
			for i, v := range kk {
				t := v & 1
				pb := v >> 1 & 1
				k := (v >> 2) & m
				cnt := pht[k]
				pa := uint32(cnt >> 1)
				ci := pcx[tids[i]] & cmask
				cc := ch[ci]
				sel := uint32(cc >> 1)
				pred := pb ^ (sel & (pa ^ pb))
				n += int32(pred ^ t ^ 1)
				if pa != pb {
					ch[ci] = counterNext[pa^t^1][cc]
				}
				pht[k] = Counter2(sweepStep[uint8(cnt)<<1|uint8(t)] >> 1)
			}
			correct[c] += n
		}
	}
	g.history = h
}

var _ SweepGrid = (*HybridSweep)(nil)
