package trace

// This file is the streaming half of the columnar trace substrate: a
// bounded-memory iterator contract (BlockSource) yielding the packed
// trace shape — dense-ID column plus taken/backward bitsets, exactly what
// bp.KernelBlock consumes — one fixed-size chunk at a time, with the
// intern table grown incrementally as new static branches appear. The
// in-memory Packed view adapts to the contract trivially (Packed.Blocks),
// ReadBlocks decodes BTR1 streams into it without ever materializing a
// []Record, and internal/corpus serves its on-disk chunked format through
// it, so the sim engine and the oracle passes run identically over
// RAM-resident and arbitrarily long on-disk traces.

// Block is one chunk of packed trace columns. Unlike bp.KernelBlock,
// whose bitsets are indexed by absolute trace position, a Block is
// self-contained: bit i of Taken (and Back) refers to record i of this
// block, so consumers need no global offset. The slices are views into
// buffers the source reuses; they are valid only until the next call to
// the source's Next.
type Block struct {
	IDs   []int32  // dense branch ID per dynamic record
	Taken []uint64 // bitset: bit i = block record i resolved taken
	Back  []uint64 // bitset: bit i = block record i is a backward branch
}

// Len returns the number of records in the block.
func (b Block) Len() int { return len(b.IDs) }

// Bytes returns the block's resident column footprint in bytes, the
// quantity the streaming consumers track in their peak-resident-chunk
// gauges.
func (b Block) Bytes() int {
	return len(b.IDs)*4 + len(b.Taken)*8 + len(b.Back)*8
}

// Taken1 returns record i's resolved direction as 0 or 1.
func (b Block) Taken1(i int) uint64 { return b.Taken[i>>6] >> (uint(i) & 63) & 1 }

// Back1 returns 1 iff record i is a backward branch.
func (b Block) Back1(i int) uint64 { return b.Back[i>>6] >> (uint(i) & 63) & 1 }

// BlockSource yields a trace as a sequence of bounded packed blocks.
// Dense IDs are assigned in order of first appearance across the whole
// stream — the identical assignment packing makes for the same record
// sequence — so a streamed consumer and a Packed consumer see the same
// IDs for the same trace. Implementations are single-pass: multi-pass
// consumers (the oracle) re-open a fresh source per pass via an opener
// callback.
type BlockSource interface {
	// Name returns the trace name.
	Name() string
	// Next advances to the next block, returning false at end of stream
	// or on error (check Err). The returned block's slices are owned by
	// the source and valid only until the following Next call.
	Next() (Block, bool)
	// Addrs returns the intern table built so far: Addrs()[id] is the
	// static address of dense ID id, covering at least every ID yielded
	// by blocks returned so far. The prefix already handed out never
	// changes; the table only grows.
	Addrs() []Addr
	// Err returns the first error the source encountered, if any.
	Err() error
}

// DefaultBlockLen is the chunk size streaming producers use when the
// caller does not choose one: 64K records ≈ 256 KiB of dense-ID column
// per block, large enough to amortize per-block kernel setup and small
// enough to stay cache- and laptop-friendly at any trace length.
const DefaultBlockLen = 1 << 16

// copyBits copies n bits starting at absolute bit lo of src into dst
// starting at bit 0. dst must hold at least (n+63)/64 words; words beyond
// the copied bits are zeroed.
func copyBits(dst, src []uint64, lo, n int) {
	words := (n + 63) / 64
	shift := uint(lo) & 63
	w := lo >> 6
	if shift == 0 {
		copy(dst[:words], src[w:w+words])
	} else {
		for i := 0; i < words; i++ {
			v := src[w+i] >> shift
			if w+i+1 < len(src) {
				v |= src[w+i+1] << (64 - shift)
			}
			dst[i] = v
		}
	}
	// Mask the tail so bits past n never leak into a consumer that scans
	// whole words (and so re-encoders observe canonical zero padding).
	if tail := uint(n) & 63; tail != 0 {
		dst[words-1] &= 1<<tail - 1
	}
	for i := words; i < len(dst); i++ {
		dst[i] = 0
	}
}

// PackedSource adapts an in-memory Packed view to the BlockSource
// contract; an in-memory trace is simulated as the one-chunk source
// p.Blocks(p.Len()). The ID column is served as subslices of the packed
// column (zero copy). So are the bitsets of a block that starts on a
// word boundary and ends on one or at the trace end — always the case
// for a one-chunk source — since the packed view's tail padding is
// zero; other blocks' bitsets are re-based into reused buffers.
type PackedSource struct {
	p     *Packed
	chunk int
	pos   int
	taken []uint64
	back  []uint64
}

// Blocks returns a source yielding the packed view in chunks of
// chunkLen records (the last block may be short); chunkLen <= 0 selects
// DefaultBlockLen.
func (p *Packed) Blocks(chunkLen int) *PackedSource {
	if chunkLen <= 0 {
		chunkLen = DefaultBlockLen
	}
	return &PackedSource{p: p, chunk: chunkLen}
}

// Name implements BlockSource.
func (s *PackedSource) Name() string { return s.p.Name() }

// Addrs implements BlockSource. The packed view's intern table is
// complete from the start, which satisfies the grow-only contract.
func (s *PackedSource) Addrs() []Addr { return s.p.Addrs() }

// Err implements BlockSource; an in-memory view cannot fail.
func (s *PackedSource) Err() error { return nil }

// Next implements BlockSource.
func (s *PackedSource) Next() (Block, bool) {
	if s.pos >= s.p.Len() {
		return Block{}, false
	}
	lo := s.pos
	n := min(s.chunk, s.p.Len()-lo)
	s.pos = lo + n
	words := (n + 63) / 64
	blk := Block{IDs: s.p.IDs()[lo : lo+n]}
	if lo&63 == 0 && (n&63 == 0 || s.pos == s.p.Len()) {
		w := lo >> 6
		blk.Taken = s.p.TakenWords()[w : w+words : w+words]
		blk.Back = s.p.BackwardWords()[w : w+words : w+words]
		return blk, true
	}
	if s.taken == nil {
		chunkWords := (s.chunk + 63) / 64
		s.taken = make([]uint64, chunkWords)
		s.back = make([]uint64, chunkWords)
	}
	copyBits(s.taken, s.p.TakenWords(), lo, n)
	copyBits(s.back, s.p.BackwardWords(), lo, n)
	blk.Taken = s.taken[:words]
	blk.Back = s.back[:words]
	return blk, true
}
