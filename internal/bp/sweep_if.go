package bp

import (
	"fmt"

	"branchcorr/internal/trace"
)

// This file extends the fused-sweep contract (sweep.go) to the
// interference-free predictor variants. IF predictors keep unbounded
// per-(address, history) counter maps, so their replays cannot be the
// dense power-of-2 table loops of the other families — but the sharing
// argument is identical:
//
//   - IFGshareSweep: one unmasked global history register serves every
//     history length, because a config's counter key is
//     addr<<32 | (h & mask_c) and each config's masked register equals
//     the shared register's low bits. Per config: only the counter map.
//   - IFPAsSweep: one dense per-ID table of unmasked local history
//     registers serves every length. Distinct addresses get distinct
//     dense IDs (the packed view's interning is injective), so unlike
//     the real PAs there is no aliasing to preserve and the register
//     file is exact for every config simultaneously.
//
// The staged word is 64-bit (unmasked 32-bit history plus the outcome
// bit); the per-ID key prefix addr<<32 is a cached column like pcx.
// Steady-state blocks allocate only what the semantics require — map
// growth for never-seen (address, history) pairs — the staging scratch
// and derived columns are allocated once and reused, which
// sweep_alloc_test.go pins with a bounded (amortized) gate.

// extendKeyHi grows a cached per-ID map-key-prefix column (addr<<32) to
// cover addrs, mirroring extendPcx.
func extendKeyHi(keyHi []uint64, addrs []trace.Addr) []uint64 {
	if len(addrs) <= len(keyHi) {
		return keyHi
	}
	out := make([]uint64, len(addrs), max(len(addrs), 2*cap(keyHi)))
	copy(out, keyHi)
	for id := len(keyHi); id < len(addrs); id++ {
		out[id] = uint64(addrs[id]) << 32
	}
	return out
}

// IFGshareSweep is the fused interference-free gshare grid: one config
// per history length, all sharing one unmasked global history register;
// per config only the counter map.
type IFGshareSweep struct {
	bits     []uint
	hmasks   []uint64 // per-config history mask (widened for the key or)
	counters []map[uint64]Counter2
	history  uint32 // shared unmasked global history
	keyHi    []uint64
	kt       []uint64 // tile staging: history<<1 | outcome
}

// NewIFGshareSweep returns a fused grid of IF-gshare configs, one per
// entry of historyBits (each within NewIFGshare's [1,32] range), in
// argument order.
func NewIFGshareSweep(historyBits []uint) *IFGshareSweep {
	if len(historyBits) == 0 {
		panic("bp: IF-gshare sweep needs at least one config")
	}
	hmasks := make([]uint64, len(historyBits))
	counters := make([]map[uint64]Counter2, len(historyBits))
	for c, b := range historyBits {
		if b == 0 || b > 32 {
			panic(fmt.Sprintf("bp: IF-gshare history bits %d out of range [1,32]", b))
		}
		hmasks[c] = uint64(1)<<b - 1
		counters[c] = make(map[uint64]Counter2)
	}
	return &IFGshareSweep{
		bits:     append([]uint(nil), historyBits...),
		hmasks:   hmasks,
		counters: counters,
		kt:       make([]uint64, sweepTile),
	}
}

// GridName implements SweepGrid.
func (g *IFGshareSweep) GridName() string {
	return fmt.Sprintf("if-gshare-hist(%d configs, %d..%d bits)", len(g.bits), g.bits[0], g.bits[len(g.bits)-1])
}

// ConfigNames implements SweepGrid; names match NewIFGshare's.
func (g *IFGshareSweep) ConfigNames() []string {
	out := make([]string, len(g.bits))
	for c, b := range g.bits {
		out[c] = fmt.Sprintf("IF-gshare(%d)", b)
	}
	return out
}

// Configs implements SweepGrid.
func (g *IFGshareSweep) Configs() []Predictor {
	out := make([]Predictor, len(g.bits))
	for c, b := range g.bits {
		out[c] = NewIFGshare(b)
	}
	return out
}

// Shard implements SweepGrid: a fresh fused grid over the history
// lengths [lo, hi).
func (g *IFGshareSweep) Shard(lo, hi int) SweepGrid {
	checkShardRange(lo, hi, len(g.bits))
	return NewIFGshareSweep(g.bits[lo:hi])
}

// SweepBlock implements SweepGrid. The shared pass stages the
// unmasked history and outcome per record and advances the register;
// each config's replay is the scalar loop minus the history update, one
// map read-modify-write per record through the sweepStep LUT.
//
//bplint:hot
func (g *IFGshareSweep) SweepBlock(blk KernelBlock, correct []int32) {
	g.keyHi = extendKeyHi(g.keyHi, blk.Addrs)
	keyHi := g.keyHi
	counters := g.counters
	hmasks := g.hmasks
	correct = correct[:len(counters)]
	taken := blk.Taken
	ids := blk.IDs
	kt := g.kt
	h := g.history
	for lo := blk.Lo; lo < blk.Hi; lo += sweepTile {
		hi := min(lo+sweepTile, blk.Hi)
		tids := ids[lo:hi]
		kk := kt[:len(tids)]
		j := lo
		for i := range kk {
			t := taken[j>>6] >> (uint(j) & 63) & 1
			kk[i] = uint64(h)<<1 | t
			h = h<<1 | uint32(t)
			j++
		}
		for c := range counters {
			tbl := counters[c]
			m := hmasks[c]
			n := int32(0)
			for i, v := range kk {
				t := Counter2(v & 1)
				k := keyHi[tids[i]] | (v>>1)&m
				cnt := tbl[k] //bplint:ignore kernel-purity interference-free tables are maps by design: unbounded per-(address,history) state has no dense index
				x := sweepStep[cnt<<1|t]
				n += int32(x & 1)
				tbl[k] = Counter2(x >> 1) //bplint:ignore kernel-purity interference-free tables are maps by design: unbounded per-(address,history) state has no dense index
			}
			correct[c] += n
		}
	}
	g.history = h
}

// IFPAsSweep is the fused interference-free PAs grid: one config per
// local history length, all sharing one dense per-ID file of unmasked
// history registers; per config only the counter map.
type IFPAsSweep struct {
	bits     []uint
	hmasks   []uint64
	counters []map[uint64]Counter2
	hist     []uint32 // shared unmasked per-ID local histories
	keyHi    []uint64
	kt       []uint64
}

// NewIFPAsSweep returns a fused grid of IF-PAs configs, one per entry
// of historyBits (each within NewIFPAs's [1,32] range), in argument
// order.
func NewIFPAsSweep(historyBits []uint) *IFPAsSweep {
	if len(historyBits) == 0 {
		panic("bp: IF-PAs sweep needs at least one config")
	}
	hmasks := make([]uint64, len(historyBits))
	counters := make([]map[uint64]Counter2, len(historyBits))
	for c, b := range historyBits {
		if b == 0 || b > 32 {
			panic(fmt.Sprintf("bp: IF-PAs history bits %d out of range [1,32]", b))
		}
		hmasks[c] = uint64(1)<<b - 1
		counters[c] = make(map[uint64]Counter2)
	}
	return &IFPAsSweep{
		bits:     append([]uint(nil), historyBits...),
		hmasks:   hmasks,
		counters: counters,
		kt:       make([]uint64, sweepTile),
	}
}

// GridName implements SweepGrid.
func (g *IFPAsSweep) GridName() string {
	return fmt.Sprintf("if-pas-hist(%d configs, %d..%d bits)", len(g.bits), g.bits[0], g.bits[len(g.bits)-1])
}

// ConfigNames implements SweepGrid; names match NewIFPAs's.
func (g *IFPAsSweep) ConfigNames() []string {
	out := make([]string, len(g.bits))
	for c, b := range g.bits {
		out[c] = fmt.Sprintf("IF-PAs(%d)", b)
	}
	return out
}

// Configs implements SweepGrid.
func (g *IFPAsSweep) Configs() []Predictor {
	out := make([]Predictor, len(g.bits))
	for c, b := range g.bits {
		out[c] = NewIFPAs(b)
	}
	return out
}

// Shard implements SweepGrid: a fresh fused grid over the history
// lengths [lo, hi) (each shard owns a private register file, which is
// exact: the registers are stream-determined).
func (g *IFPAsSweep) Shard(lo, hi int) SweepGrid {
	checkShardRange(lo, hi, len(g.bits))
	return NewIFPAsSweep(g.bits[lo:hi])
}

// SweepBlock implements SweepGrid. The shared pass fetches each
// record's register once, stages its pre-update value (every config
// trains with the history as it stood before the branch, the scalar
// IF-PAs order), and shifts the register.
//
//bplint:hot
func (g *IFPAsSweep) SweepBlock(blk KernelBlock, correct []int32) {
	g.keyHi = extendKeyHi(g.keyHi, blk.Addrs)
	if len(blk.Addrs) > len(g.hist) {
		grown := make([]uint32, len(blk.Addrs), max(len(blk.Addrs), 2*cap(g.hist)))
		copy(grown, g.hist)
		g.hist = grown
	}
	keyHi := g.keyHi
	hist := g.hist
	counters := g.counters
	hmasks := g.hmasks
	correct = correct[:len(counters)]
	taken := blk.Taken
	ids := blk.IDs
	kt := g.kt
	for lo := blk.Lo; lo < blk.Hi; lo += sweepTile {
		hi := min(lo+sweepTile, blk.Hi)
		tids := ids[lo:hi]
		kk := kt[:len(tids)]
		j := lo
		for i := range kk {
			t := taken[j>>6] >> (uint(j) & 63) & 1
			id := tids[i]
			lh := hist[id]
			kk[i] = uint64(lh)<<1 | t
			hist[id] = lh<<1 | uint32(t)
			j++
		}
		for c := range counters {
			tbl := counters[c]
			m := hmasks[c]
			n := int32(0)
			for i, v := range kk {
				t := Counter2(v & 1)
				k := keyHi[tids[i]] | (v>>1)&m
				cnt := tbl[k] //bplint:ignore kernel-purity interference-free tables are maps by design: unbounded per-(address,history) state has no dense index
				x := sweepStep[cnt<<1|t]
				n += int32(x & 1)
				tbl[k] = Counter2(x >> 1) //bplint:ignore kernel-purity interference-free tables are maps by design: unbounded per-(address,history) state has no dense index
			}
			correct[c] += n
		}
	}
}

var (
	_ SweepGrid = (*IFGshareSweep)(nil)
	_ SweepGrid = (*IFPAsSweep)(nil)
)
