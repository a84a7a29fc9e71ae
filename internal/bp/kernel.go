package bp

import "branchcorr/internal/trace"

// This file is the columnar (batched) execution contract for the hot
// predictor set. The scalar Predict/Update methods, replayed over a block
// by Replay, remain the executable specification; a KernelPredictor
// additionally knows how to replay a whole block of a packed trace
// through the identical state transition without an interface call, a
// Record struct load, or a map lookup per dynamic branch. The sim
// package dispatches to SimulateBlock per predictor that implements it
// and to Replay for the rest; the bp conformance suite
// (kernel_test.go) pins each kernel bit-identical to its scalar
// counterpart, including across interleaved scalar/kernel calls.

// KernelBlock is the columnar input one kernel call consumes: the dense-ID and
// outcome columns of a trace.Packed plus the record range [Lo, Hi) to
// simulate. Bit i of Taken (and Back) refers to record i of the full
// columns, not of the range, so a sequence of adjacent ranges replays
// exactly the full trace. The columns are shared, read-only views;
// kernels must not modify them.
type KernelBlock struct {
	IDs   []int32      // dense branch ID per dynamic record
	Taken []uint64     // bitset: bit i = record i resolved taken
	Back  []uint64     // bitset: bit i = record i is a backward branch
	Addrs []trace.Addr // ID -> static branch address
	Lo    int          // first record to simulate
	Hi    int          // one past the last record to simulate
}

// takenBit returns record i's resolved direction as 0 or 1.
func (b KernelBlock) takenBit(i int) uint64 {
	return b.Taken[i>>6] >> (uint(i) & 63) & 1
}

// backBit returns 1 iff record i is a backward branch.
func (b KernelBlock) backBit(i int) uint64 {
	return b.Back[i>>6] >> (uint(i) & 63) & 1
}

// KernelPredictor is a Predictor that can replay a columnar trace block
// in one batched call. SimulateBlock must be observationally identical
// to calling Predict then Update for every record of the range in order:
// it consumes and leaves behind the same predictor state (so scalar and
// kernel calls may interleave on one instance), adds 1 to correct[id]
// for every record of branch id it predicts correctly, and returns the
// total number of correct predictions in the range. correct must have at
// least len(Addrs) entries; kernels only ever increment it.
type KernelPredictor interface {
	Predictor
	SimulateBlock(blk KernelBlock, correct []int32) int
}

// Replay runs records [blk.Lo, blk.Hi) through p's scalar Predict/Update
// loop on records rebuilt from the columns, with SimulateBlock's
// accounting: 1 added to correct[id] per correct prediction of branch
// id, the range's correct total returned. It is the one scalar
// reference loop — the executable specification every kernel is pinned
// against, and the engine for predictors without one.
func Replay(p Predictor, blk KernelBlock, correct []int32) int {
	c := 0
	for i := blk.Lo; i < blk.Hi; i++ {
		id := blk.IDs[i]
		rec := trace.Record{
			PC:       blk.Addrs[id],
			Taken:    blk.takenBit(i) != 0,
			Backward: blk.backBit(i) != 0,
		}
		if p.Predict(rec) == rec.Taken {
			correct[id]++
			c++
		}
		p.Update(rec)
	}
	return c
}

// counterNext is the 2-bit saturating counter transition indexed
// [outcome][state]; it is exactly Counter2.Next with the branch replaced
// by a table load, so kernels stay branch-free in the inner loop.
var counterNext = [2][4]Counter2{
	{0, 0, 1, 2}, // outcome 0: saturating decrement
	{1, 2, 3, 3}, // outcome 1: saturating increment
}

// pcxOf precomputes each dense ID's word-aligned address bits (pc >> 2),
// the quantity every table-indexed predictor folds into its index. One
// O(#branches) pass replaces a per-record shift of a reloaded address.
func pcxOf(addrs []trace.Addr) []uint32 {
	out := make([]uint32, len(addrs))
	for id, a := range addrs {
		out[id] = uint32(a) >> 2
	}
	return out
}

// SimulateBlock implements KernelPredictor.
//
// The hot-path kernels (bimodal, gshare, GAs, PAs) share one inner-loop
// shape tuned for the Go compiler: table and mask hoisted into locals
// with the mask recomputed as len-1 so the prove pass drops the bounds
// check on the counter access, the record index carried alongside a
// range over the ID column, and the correctness test folded into a
// branch-free 0/1 increment (accuracy-dependent branches are the one
// data-dependent branch the loop would otherwise carry).
func (p *Bimodal) SimulateBlock(blk KernelBlock, correct []int32) int {
	tbl := p.table
	mask := uint32(len(tbl) - 1)
	slot := pcxOf(blk.Addrs)
	for id := range slot {
		slot[id] &= mask
	}
	taken := blk.Taken
	total := 0
	j := blk.Lo
	for _, id := range blk.IDs[blk.Lo:blk.Hi] {
		t := taken[j>>6] >> (uint(j) & 63) & 1
		j++
		s := slot[id] & mask
		c := tbl[s]
		ok := int32(uint64(c>>1) ^ t ^ 1)
		correct[id] += ok
		total += int(ok)
		tbl[s] = counterNext[t][c&3]
	}
	return total
}

// SimulateBlock implements KernelPredictor.
func (p *Gshare) SimulateBlock(blk KernelBlock, correct []int32) int {
	pcx := pcxOf(blk.Addrs)
	pht := p.pht
	mask := uint32(len(pht) - 1)
	hmask := p.histMask
	taken := blk.Taken
	h := p.history
	total := 0
	j := blk.Lo
	for _, id := range blk.IDs[blk.Lo:blk.Hi] {
		t := taken[j>>6] >> (uint(j) & 63) & 1
		j++
		slot := (pcx[id] ^ h) & mask
		c := pht[slot]
		ok := int32(uint64(c>>1) ^ t ^ 1)
		correct[id] += ok
		total += int(ok)
		pht[slot] = counterNext[t][c&3]
		h = (h<<1 | uint32(t)) & hmask
	}
	p.history = h
	return total
}

// SimulateBlock implements KernelPredictor.
func (p *GAs) SimulateBlock(blk KernelBlock, correct []int32) int {
	// Resolve each ID's PHT once; the inner loop then indexes the
	// selected table by global history with no per-record bank select.
	tables := make([][]Counter2, len(blk.Addrs))
	pcx := pcxOf(blk.Addrs)
	phts := p.phts
	for id := range tables {
		tables[id] = phts[pcx[id]&p.addrMask]
	}
	hmask := p.histMask
	taken := blk.Taken
	h := p.history
	total := 0
	j := blk.Lo
	for _, id := range blk.IDs[blk.Lo:blk.Hi] {
		t := taken[j>>6] >> (uint(j) & 63) & 1
		j++
		tbl := tables[id]
		slot := (h & hmask) & uint32(len(tbl)-1)
		c := tbl[slot]
		ok := int32(uint64(c>>1) ^ t ^ 1)
		correct[id] += ok
		total += int(ok)
		tbl[slot] = counterNext[t][c&3]
		h = (h<<1 | uint32(t)) & hmask
	}
	p.history = h
	return total
}

// SimulateBlock implements KernelPredictor.
func (p *PAs) SimulateBlock(blk KernelBlock, correct []int32) int {
	// Per-ID BHT slot and PHT bank are static properties of the address;
	// resolve both once. Distinct IDs may alias the same BHT slot or
	// bank, so all state reads/writes still go through the shared tables.
	pcx := pcxOf(blk.Addrs)
	bhtIdx := make([]uint32, len(blk.Addrs))
	tables := make([][]Counter2, len(blk.Addrs))
	phts := p.phts
	for id := range pcx {
		bhtIdx[id] = pcx[id] & p.bhtMask
		tables[id] = phts[pcx[id]&p.phtMask]
	}
	bht := p.bht
	bmask := uint32(len(bht) - 1)
	hmask := p.histMask
	taken := blk.Taken
	total := 0
	j := blk.Lo
	for _, id := range blk.IDs[blk.Lo:blk.Hi] {
		t := taken[j>>6] >> (uint(j) & 63) & 1
		j++
		bi := bhtIdx[id] & bmask
		bh := bht[bi]
		tbl := tables[id]
		hist := (bh & hmask) & uint32(len(tbl)-1)
		c := tbl[hist]
		ok := int32(uint64(c>>1) ^ t ^ 1)
		correct[id] += ok
		total += int(ok)
		tbl[hist] = counterNext[t][c&3]
		bht[bi] = (bh<<1)&hmask | uint32(t)
	}
	return total
}

// SimulateBlock implements KernelPredictor.
func (AlwaysTaken) SimulateBlock(blk KernelBlock, correct []int32) int {
	ids := blk.IDs
	total := 0
	for i := blk.Lo; i < blk.Hi; i++ {
		if blk.takenBit(i) != 0 {
			correct[ids[i]]++
			total++
		}
	}
	return total
}

// SimulateBlock implements KernelPredictor.
func (AlwaysNotTaken) SimulateBlock(blk KernelBlock, correct []int32) int {
	ids := blk.IDs
	total := 0
	for i := blk.Lo; i < blk.Hi; i++ {
		if blk.takenBit(i) == 0 {
			correct[ids[i]]++
			total++
		}
	}
	return total
}

// SimulateBlock implements KernelPredictor.
func (BTFNT) SimulateBlock(blk KernelBlock, correct []int32) int {
	ids := blk.IDs
	total := 0
	for i := blk.Lo; i < blk.Hi; i++ {
		if blk.takenBit(i) == blk.backBit(i) {
			correct[ids[i]]++
			total++
		}
	}
	return total
}

// SimulateBlock implements KernelPredictor.
func (p *IdealStatic) SimulateBlock(blk KernelBlock, correct []int32) int {
	// Per-ID predicted direction, resolved from the profile once
	// (branches absent from the profile predict taken, as in Predict).
	pred := make([]uint64, len(blk.Addrs))
	for id, a := range blk.Addrs {
		dir, ok := p.majority[a] //bplint:ignore kernel-purity profile resolve runs once per static branch, not per record
		if !ok || dir {
			pred[id] = 1
		}
	}
	ids := blk.IDs
	total := 0
	for i := blk.Lo; i < blk.Hi; i++ {
		id := ids[i]
		if pred[id] == blk.takenBit(i) {
			correct[id]++
			total++
		}
	}
	return total
}

// SimulateBlock implements KernelPredictor. The interference-free
// tables stay maps (that is the point of the variant: unbounded
// per-branch state), but the kernel folds each ID's key prefix once and
// does one map access per record where the scalar path does two.
func (p *IFGshare) SimulateBlock(blk KernelBlock, correct []int32) int {
	keyHi := make([]uint64, len(blk.Addrs))
	for id, a := range blk.Addrs {
		keyHi[id] = uint64(a) << 32
	}
	h := p.history
	ids := blk.IDs
	total := 0
	for i := blk.Lo; i < blk.Hi; i++ {
		id := ids[i]
		t := blk.takenBit(i)
		k := keyHi[id] | uint64(h)
		c := p.counters[k] //bplint:ignore kernel-purity interference-free tables are maps by design: unbounded per-(address,history) state has no dense index
		if uint64(c>>1) == t {
			correct[id]++
			total++
		}
		p.counters[k] = counterNext[t][c] //bplint:ignore kernel-purity interference-free tables are maps by design: unbounded per-(address,history) state has no dense index
		h = (h<<1 | uint32(t)) & p.histMask
	}
	p.history = h
	return total
}

// SimulateBlock implements KernelPredictor. Per-branch history registers
// are loaded into a dense slice for the duration of the block and
// written back at the end, so the inner loop updates local history
// without a map access; the counter table stays a map keyed by
// (address, history), as in the scalar path.
func (p *IFPAs) SimulateBlock(blk KernelBlock, correct []int32) int {
	keyHi := make([]uint64, len(blk.Addrs))
	hist := make([]uint32, len(blk.Addrs))
	for id, a := range blk.Addrs {
		keyHi[id] = uint64(a) << 32
		hist[id] = p.hist[a] //bplint:ignore kernel-purity history registers load once per static branch into a dense slice, not per record
	}
	ids := blk.IDs
	total := 0
	for i := blk.Lo; i < blk.Hi; i++ {
		id := ids[i]
		t := blk.takenBit(i)
		k := keyHi[id] | uint64(hist[id]&p.histMask)
		c := p.counters[k] //bplint:ignore kernel-purity interference-free tables are maps by design: unbounded per-(address,history) state has no dense index
		if uint64(c>>1) == t {
			correct[id]++
			total++
		}
		p.counters[k] = counterNext[t][c] //bplint:ignore kernel-purity interference-free tables are maps by design: unbounded per-(address,history) state has no dense index
		hist[id] = (hist[id]<<1)&p.histMask | uint32(t)
	}
	for id, a := range blk.Addrs {
		p.hist[a] = hist[id] //bplint:ignore kernel-purity per-branch history writeback runs once per static branch at block end
	}
	return total
}
