package trace

import (
	"bufio"
	"io"
)

// BlockReader decodes a BTR1 stream directly into packed blocks: the
// dense-ID column, the taken/backward bitsets, and the intern table are
// built incrementally, chunk by chunk, without ever materializing a
// []Record or the whole trace. Resident memory is O(chunk + static
// branch sites): one block's columns plus the grow-only intern table, so
// a billion-branch on-disk trace decodes in the same footprint as a
// million-branch one. Construct with ReadBlocks.
type BlockReader struct {
	br        *bufio.Reader
	name      string
	count     uint64
	remaining uint64
	prev      Addr
	err       error

	addrs []Addr
	idOf  map[Addr]int32

	chunk int
	ids   []int32
	taken []uint64
	back  []uint64
}

// ReadBlocks reads the stream header and returns a BlockSource yielding
// the records in chunks of chunkLen (the last block may be short);
// chunkLen <= 0 selects DefaultBlockLen. It enforces the same canonical
// encoding rules as Read and never trusts the header's record count for
// an allocation.
func ReadBlocks(r io.Reader, chunkLen int) (*BlockReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	name, count, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	if chunkLen <= 0 {
		chunkLen = DefaultBlockLen
	}
	return &BlockReader{
		br:        br,
		name:      name,
		count:     count,
		remaining: count,
		chunk:     chunkLen,
		idOf:      make(map[Addr]int32),
		ids:       make([]int32, 0, chunkLen),
		taken:     make([]uint64, (chunkLen+63)/64),
		back:      make([]uint64, (chunkLen+63)/64),
	}, nil
}

// Name implements BlockSource.
func (b *BlockReader) Name() string { return b.name }

// Addrs implements BlockSource: the intern table covering every dense ID
// decoded so far, in first-appearance order — the identical assignment
// packing makes over the same records.
func (b *BlockReader) Addrs() []Addr { return b.addrs }

// Err implements BlockSource.
func (b *BlockReader) Err() error { return b.err }

// Remaining returns how many records the header still promises.
func (b *BlockReader) Remaining() int { return int(b.remaining) }

// Next implements BlockSource: it decodes up to one chunk of records
// into the reader's reused column buffers.
func (b *BlockReader) Next() (Block, bool) {
	if b.err != nil || b.remaining == 0 {
		return Block{}, false
	}
	n := min(uint64(b.chunk), b.remaining)
	b.ids = b.ids[:0]
	for i := range b.taken {
		b.taken[i] = 0
		b.back[i] = 0
	}
	base := b.count - b.remaining
	for i := 0; i < int(n); i++ {
		rec, err := readRecord(b.br, base+uint64(i), b.prev)
		if err != nil {
			b.err = err
			return Block{}, false
		}
		b.prev = rec.PC
		id, ok := b.idOf[rec.PC]
		if !ok {
			id = int32(len(b.addrs))
			b.idOf[rec.PC] = id
			b.addrs = append(b.addrs, rec.PC)
		}
		b.ids = append(b.ids, id)
		if rec.Taken {
			b.taken[i>>6] |= 1 << (uint(i) & 63)
		}
		if rec.Backward {
			b.back[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	b.remaining -= n
	words := (int(n) + 63) / 64
	return Block{IDs: b.ids, Taken: b.taken[:words], Back: b.back[:words]}, true
}
