package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// drainSource reconstructs the full record sequence from a block source,
// checking the per-block invariants (intern-table coverage, bitset
// sizing) along the way.
func drainSource(t *testing.T, src BlockSource) []Record {
	t.Helper()
	var recs []Record
	for {
		blk, ok := src.Next()
		if !ok {
			break
		}
		addrs := src.Addrs()
		if want := (blk.Len() + 63) / 64; len(blk.Taken) != want || len(blk.Back) != want {
			t.Fatalf("block bitsets sized %d/%d words, want %d for %d records",
				len(blk.Taken), len(blk.Back), want, blk.Len())
		}
		for i, id := range blk.IDs {
			if int(id) >= len(addrs) {
				t.Fatalf("block record %d has ID %d beyond intern table of %d", i, id, len(addrs))
			}
			recs = append(recs, Record{
				PC:       addrs[id],
				Taken:    blk.Taken1(i) != 0,
				Backward: blk.Back1(i) != 0,
			})
		}
	}
	if err := src.Err(); err != nil {
		t.Fatalf("source error: %v", err)
	}
	return recs
}

// localityTrace returns a trace with branch-like PC locality, plus the
// records it was built from, which the packed trace no longer holds.
func localityTrace(name string, n int, seed int64) (*Trace, []Record) {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, 0, n)
	pc := Addr(0x1000)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			pc = Addr(0x1000 + 4*rng.Intn(64))
		case 1:
			// repeat previous PC (exercises samePC encoding)
		default:
			pc += 4
		}
		recs = append(recs, Record{PC: pc, Taken: rng.Intn(3) != 0, Backward: rng.Intn(5) == 0})
	}
	return build(name, recs), recs
}

// chunkCases returns the adversarial chunk lengths for a trace of n
// records: 1, the chunk straddles (cs-1, cs, cs+1 around both the word
// size and n itself), and larger-than-trace.
func chunkCases(n int) []int {
	cases := []int{1, 63, 64, 65, DefaultBlockLen}
	if n > 1 {
		cases = append(cases, n-1)
	}
	if n > 0 {
		cases = append(cases, n, n+1)
	}
	return cases
}

func TestPackedSourceMatchesRecords(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 1000} {
		tr, recs := localityTrace("ps", n, int64(n)+1)
		pt := tr.Packed()
		for _, chunk := range chunkCases(n) {
			src := pt.Blocks(chunk)
			if src.Name() != "ps" {
				t.Fatalf("Name = %q", src.Name())
			}
			got := drainSource(t, src)
			if len(got) != n {
				t.Fatalf("n=%d chunk=%d: drained %d records", n, chunk, len(got))
			}
			for i, r := range got {
				if r != recs[i] {
					t.Fatalf("n=%d chunk=%d: record %d = %v, want %v", n, chunk, i, r, recs[i])
				}
			}
		}
	}
}

// TestPackedSourceIDsMatchPack pins the dense-ID assignment: the
// streamed IDs must be byte-for-byte the packed column, chunk by chunk.
func TestPackedSourceIDsMatchPack(t *testing.T) {
	tr, _ := localityTrace("ids", 777, 7)
	pt := tr.Packed()
	for _, chunk := range chunkCases(tr.Len()) {
		src := pt.Blocks(chunk)
		pos := 0
		for {
			blk, ok := src.Next()
			if !ok {
				break
			}
			for i, id := range blk.IDs {
				if id != pt.ID(pos+i) {
					t.Fatalf("chunk=%d: record %d ID %d != packed %d", chunk, pos+i, id, pt.ID(pos+i))
				}
			}
			pos += blk.Len()
		}
	}
}

func TestReadBlocksMatchesPack(t *testing.T) {
	for _, n := range []int{0, 1, 64, 65, 1000} {
		tr, recs := localityTrace("rb", n, int64(n)+13)
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		pt := tr.Packed()
		for _, chunk := range chunkCases(n) {
			br, err := ReadBlocks(bytes.NewReader(buf.Bytes()), chunk)
			if err != nil {
				t.Fatal(err)
			}
			if br.Name() != "rb" {
				t.Fatalf("Name = %q", br.Name())
			}
			if br.Remaining() != n {
				t.Fatalf("Remaining = %d, want %d", br.Remaining(), n)
			}
			got := drainSource(t, br)
			if len(got) != n {
				t.Fatalf("n=%d chunk=%d: drained %d records", n, chunk, len(got))
			}
			for i, r := range got {
				if r != recs[i] {
					t.Fatalf("n=%d chunk=%d: record %d = %v, want %v", n, chunk, i, r, recs[i])
				}
			}
			// The incremental intern table must end up identical to packing's.
			addrs := br.Addrs()
			if len(addrs) != pt.NumBranches() {
				t.Fatalf("intern table has %d entries, want %d", len(addrs), pt.NumBranches())
			}
			for id, a := range addrs {
				if a != pt.AddrOf(int32(id)) {
					t.Fatalf("intern[%d] = %#x, want %#x", id, a, pt.AddrOf(int32(id)))
				}
			}
		}
	}
}

func TestReadBlocksTruncated(t *testing.T) {
	tr, _ := localityTrace("trunc", 500, 3)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	br, err := ReadBlocks(bytes.NewReader(data[:len(data)/2]), 64)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := br.Next(); !ok {
			break
		}
	}
	if br.Err() == nil {
		t.Error("truncated stream should surface an error")
	}
	if _, ok := br.Next(); ok {
		t.Error("Next after error should keep returning false")
	}
}

// The TestScanner* tests keep the names of the record-at-a-time Scanner
// they were first written against; they now drive ReadBlocks, the
// streaming decoder that replaced it.

func scannerTrace(t *testing.T) ([]Record, []byte) {
	t.Helper()
	recs := make([]Record, 5000)
	for i := range recs {
		recs[i] = Record{
			PC:       Addr(0x100 + (i%37)*4),
			Taken:    i%3 != 0,
			Backward: i%5 == 0,
		}
	}
	var buf bytes.Buffer
	if err := build("scan", recs).Write(&buf); err != nil {
		t.Fatal(err)
	}
	return recs, buf.Bytes()
}

// requireTruncated asserts a stream that ends before its header's record
// count surfaces as a source error at chunk sizes 1, 64 and the default,
// that Next keeps returning false after it, and that the error is a
// truncation (io.ErrUnexpectedEOF, never a clean io.EOF) with the same
// text Read reports, record index included.
func requireTruncated(t *testing.T, data []byte) {
	t.Helper()
	_, readErr := Read(bytes.NewReader(data))
	if !errors.Is(readErr, io.ErrUnexpectedEOF) || errors.Is(readErr, io.EOF) {
		t.Errorf("Read: err = %v, want io.ErrUnexpectedEOF and not io.EOF", readErr)
	}
	for _, chunk := range []int{1, 64, 0} {
		br, err := ReadBlocks(bytes.NewReader(data), chunk)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, ok := br.Next(); !ok {
				break
			}
		}
		err = br.Err()
		if err == nil {
			t.Errorf("chunk=%d: truncated stream should surface an error", chunk)
			continue
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			t.Errorf("chunk=%d: err = %v, want io.ErrUnexpectedEOF and not io.EOF", chunk, err)
		}
		if readErr != nil && err.Error() != readErr.Error() {
			t.Errorf("chunk=%d: ReadBlocks err %q, Read err %q", chunk, err, readErr)
		}
		if _, ok := br.Next(); ok {
			t.Errorf("chunk=%d: Next after error should keep returning false", chunk)
		}
	}
}

func TestScannerMatchesRead(t *testing.T) {
	recs, data := scannerTrace(t)
	br, err := ReadBlocks(bytes.NewReader(data), 0)
	if err != nil {
		t.Fatal(err)
	}
	if br.Name() != "scan" {
		t.Errorf("Name = %q", br.Name())
	}
	if br.Remaining() != len(recs) {
		t.Errorf("Remaining = %d, want %d", br.Remaining(), len(recs))
	}
	got := drainSource(t, br)
	if len(got) != len(recs) {
		t.Errorf("decoded %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		if r != recs[i] {
			t.Fatalf("record %d: %v != %v", i, r, recs[i])
		}
	}
	if _, ok := br.Next(); ok {
		t.Error("Next after end of stream should be false")
	}
	if br.Remaining() != 0 {
		t.Errorf("Remaining after end of stream = %d", br.Remaining())
	}
}

func TestScannerBadMagic(t *testing.T) {
	if _, err := ReadBlocks(strings.NewReader("XXXXXXXXXX"), 8); err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestScannerTruncated(t *testing.T) {
	_, data := scannerTrace(t)
	requireTruncated(t, data[:len(data)/2])
}

// TestInterleaveStreaming covers the Interleave + streaming interaction:
// a context-switched merge streamed at chunk boundaries falling at 0, 1,
// the switch quantum, and quantum±1 must reconstruct the merged record
// sequence exactly.
func TestInterleaveStreaming(t *testing.T) {
	a, _ := localityTrace("a", 300, 1)
	b, _ := localityTrace("b", 120, 2)
	const quantum = 64
	merged := Interleave("mix", quantum, a, b)
	want := recordsOf(merged)
	pt := merged.Packed()
	for _, chunk := range []int{1, quantum - 1, quantum, quantum + 1, merged.Len()} {
		got := drainSource(t, pt.Blocks(chunk))
		if len(got) != merged.Len() {
			t.Fatalf("chunk=%d: drained %d records, want %d", chunk, len(got), merged.Len())
		}
		for i, r := range got {
			if r != want[i] {
				t.Fatalf("chunk=%d: record %d = %v, want %v", chunk, i, r, want[i])
			}
		}
	}
	// And through the on-disk decoder, at the same boundary chunk sizes.
	var buf bytes.Buffer
	if err := merged.Write(&buf); err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, quantum, quantum + 1} {
		br, err := ReadBlocks(bytes.NewReader(buf.Bytes()), chunk)
		if err != nil {
			t.Fatal(err)
		}
		got := drainSource(t, br)
		for i, r := range got {
			if r != want[i] {
				t.Fatalf("disk chunk=%d: record %d mismatch", chunk, i)
			}
		}
	}
}

func TestInterleaveEmptyInput(t *testing.T) {
	if got := Interleave("none", 4); got.Len() != 0 || got.Name() != "none" {
		t.Errorf("Interleave() = %d records, name %q", got.Len(), got.Name())
	}
	got := drainSource(t, Interleave("none", 4).Packed().Blocks(8))
	if len(got) != 0 {
		t.Errorf("streaming an empty interleave yielded %d records", len(got))
	}
}

func TestBlockBytes(t *testing.T) {
	blk := Block{IDs: make([]int32, 100), Taken: make([]uint64, 2), Back: make([]uint64, 2)}
	if got := blk.Bytes(); got != 100*4+2*8+2*8 {
		t.Errorf("Bytes = %d", got)
	}
}

func TestAssemblePackedRoundTrip(t *testing.T) {
	tr, _ := localityTrace("as", 257, 9)
	pt := tr.Packed()
	got, err := AssemblePacked(pt.Name(), pt.Addrs(), pt.IDs(), pt.TakenWords(), pt.BackwardWords())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != pt.Len() || got.NumBranches() != pt.NumBranches() {
		t.Fatalf("assembled %d/%d, want %d/%d", got.Len(), got.NumBranches(), pt.Len(), pt.NumBranches())
	}
	for i := 0; i < pt.Len(); i++ {
		if got.Record(i) != pt.Record(i) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	for id := int32(0); int(id) < pt.NumBranches(); id++ {
		if got.Counts()[id] != pt.Counts()[id] {
			t.Fatalf("counts[%d] = %d, want %d", id, got.Counts()[id], pt.Counts()[id])
		}
	}
}

func TestAssemblePackedRejectsMalformed(t *testing.T) {
	addrs := []Addr{0x10, 0x20}
	ids := []int32{0, 1, 0}
	taken := []uint64{0b101}
	back := []uint64{0}
	if _, err := AssemblePacked("ok", addrs, ids, taken, back); err != nil {
		t.Fatalf("well-formed columns rejected: %v", err)
	}
	cases := []struct {
		name  string
		addrs []Addr
		ids   []int32
		taken []uint64
		back  []uint64
	}{
		{"bitset too short", addrs, ids, nil, back},
		{"padding bits set", addrs, ids, []uint64{1 << 40}, back},
		{"id out of range", addrs, []int32{0, 2, 0}, taken, back},
		{"negative id", addrs, []int32{0, -1, 0}, taken, back},
		{"not first-appearance", addrs, []int32{1, 0, 0}, taken, back},
		{"unused intern entry", addrs, []int32{0, 0, 0}, taken, back},
		{"duplicate intern entry", []Addr{0x10, 0x10}, ids, taken, back},
	}
	for _, c := range cases {
		if _, err := AssemblePacked(c.name, c.addrs, c.ids, c.taken, c.back); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestFromPackedSeedsMemo(t *testing.T) {
	tr, recs := localityTrace("fp", 100, 4)
	pt := tr.Packed()
	got := FromPacked(pt)
	if got.Len() != tr.Len() || got.Name() != tr.Name() {
		t.Fatalf("FromPacked: %d records, name %q", got.Len(), got.Name())
	}
	if got.Packed() != pt {
		t.Error("FromPacked should seed the Packed memo with the given view")
	}
	if !reflect.DeepEqual(recordsOf(got), recs) {
		t.Error("FromPacked trace reads back different records")
	}
}

// fromPackedSink keeps FromPacked's result on the heap, as a real
// caller's would be, so the allocation measurements see it.
var fromPackedSink *Trace

// TestFromPackedNoCopy pins that wrapping a loaded view costs the same at
// any length: FromPacked materializes no records, so both its allocation
// count and its allocated bytes are independent of the record count.
func TestFromPackedNoCopy(t *testing.T) {
	measure := func(n int) (allocs float64, bytes uint64) {
		tr, _ := localityTrace("nc", n, 5)
		pt := tr.Packed()
		allocs = testing.AllocsPerRun(10, func() { fromPackedSink = FromPacked(pt) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 10 {
			fromPackedSink = FromPacked(pt)
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / 10
	}
	smallAllocs, smallBytes := measure(1_000)
	largeAllocs, largeBytes := measure(1_000_000)
	if smallAllocs != largeAllocs {
		t.Errorf("FromPacked allocations: %v at 1k records, %v at 1M", smallAllocs, largeAllocs)
	}
	if largeBytes > 1024 {
		t.Errorf("FromPacked allocates %d bytes per call at 1M records (%d at 1k), want no per-record copy",
			largeBytes, smallBytes)
	}
}
