package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
)

// stream hand-assembles a BTR1 byte stream for decoder-hardening tests.
type stream struct{ buf bytes.Buffer }

func newStream() *stream {
	s := &stream{}
	s.buf.Write(magic[:])
	return s
}

func (s *stream) uvarint(v uint64) *stream {
	var b [binary.MaxVarintLen64]byte
	s.buf.Write(b[:binary.PutUvarint(b[:], v)])
	return s
}

func (s *stream) raw(b ...byte) *stream {
	s.buf.Write(b)
	return s
}

func (s *stream) name(n string) *stream {
	s.uvarint(uint64(len(n)))
	s.buf.WriteString(n)
	return s
}

func (s *stream) bytes() []byte { return s.buf.Bytes() }

// TestReadHugeCountNoOOM is the OOM regression for the unbounded
// preallocation trace.Read used to do (New(name, int(count)) trusted the
// header): a 15-byte stream claiming 2^60 records must fail with a
// decode error, not attempt an exabyte-scale allocation. Against the old
// decoder this test dies in makeslice before Read returns.
func TestReadHugeCountNoOOM(t *testing.T) {
	data := newStream().name("x").uvarint(1 << 60).bytes()
	if len(data) > 20 {
		t.Fatalf("repro input unexpectedly large: %d bytes", len(data))
	}
	tr, err := Read(bytes.NewReader(data))
	if err == nil {
		t.Fatalf("Read of %d-byte stream claiming 2^60 records succeeded: %d records", len(data), tr.Len())
	}
}

// TestScannerHugeCountBounded: the streaming decoder never preallocates
// by the header's count, but the same claim must still surface as a
// truncation error at every chunk size, not an infinite loop.
func TestScannerHugeCountBounded(t *testing.T) {
	requireTruncated(t, newStream().name("x").uvarint(1<<60).bytes())
}

func TestReadRejectsReservedHeaderBits(t *testing.T) {
	for _, hdr := range []uint64{1 << 3, 1 << 7, flagTaken | 1<<5} {
		data := newStream().name("r").uvarint(1).uvarint(hdr).uvarint(zigzag(4)).bytes()
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("header %#x with reserved bits accepted", hdr)
		} else if !strings.Contains(err.Error(), "reserved") {
			t.Errorf("header %#x: error %q does not name reserved bits", hdr, err)
		}
	}
}

func TestReadRejectsNonMinimalVarint(t *testing.T) {
	// Name length 0 encoded in two bytes (0x80 0x00).
	data := newStream().raw(0x80, 0x00).bytes()
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Error("non-minimal name-length varint accepted")
	}
	// Record header 0 (valid flags) encoded non-minimally.
	data = newStream().name("n").uvarint(1).raw(0x80, 0x00).uvarint(zigzag(4)).bytes()
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Error("non-minimal record-header varint accepted")
	}
}

func TestReadRejectsVarintOverflow(t *testing.T) {
	// Eleven continuation bytes: the value does not fit in 64 bits.
	data := newStream().raw(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f).bytes()
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Error("overflowing varint accepted")
	}
}

func TestReadRejectsZeroDelta(t *testing.T) {
	// A zero PC delta spelled explicitly instead of via the samePC flag.
	data := newStream().name("z").uvarint(2).
		uvarint(flagTaken).uvarint(zigzag(16)). // PC 16
		uvarint(0).raw(0x00).                   // explicit delta 0: non-canonical
		bytes()
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Error("explicit zero delta accepted")
	}
}

// TestReadRejectsAliasedDelta is the regression for a FuzzTraceRead
// finding: a negative delta wrapping modulo 2^32 (-25 from PC 24 landing
// on 0xFFFFFFFF) decodes to the same PC as the canonical +2^32-25
// spelling, so accepting it broke re-encode identity.
func TestReadRejectsAliasedDelta(t *testing.T) {
	data := newStream().name("w").uvarint(2).
		uvarint(0).uvarint(zigzag(24)).  // PC 24
		uvarint(0).uvarint(zigzag(-25)). // wraps to 0xFFFFFFFF: aliased
		bytes()
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Error("wraparound-aliased delta accepted")
	}
	// The canonical spelling of the same record sequence round-trips.
	tr := New("w", 2)
	tr.Append(Record{PC: 24})
	tr.Append(Record{PC: 0xFFFFFFFF})
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("canonical wraparound spelling rejected: %v", err)
	}
	if pc := got.Packed().Record(1).PC; pc != 0xFFFFFFFF {
		t.Errorf("PC = %#x", uint32(pc))
	}
}

// TestScannerRejectsNonCanonical: the streaming decoder enforces the
// same canonical-encoding rules as Read, surfacing a violation as a
// source error rather than a decoded record.
func TestScannerRejectsNonCanonical(t *testing.T) {
	reserved := newStream().name("s").uvarint(1).uvarint(1 << 4).bytes()
	zero := newStream().name("s").uvarint(1).uvarint(0).raw(0x00).bytes()
	nonMinimal := newStream().name("n").uvarint(1).raw(0x80, 0x00).uvarint(zigzag(4)).bytes()
	for name, data := range map[string][]byte{"reserved bits": reserved, "zero delta": zero, "non-minimal header": nonMinimal} {
		br, err := ReadBlocks(bytes.NewReader(data), 8)
		if err != nil {
			t.Fatalf("%s: header: %v", name, err)
		}
		if _, ok := br.Next(); ok {
			t.Errorf("%s: decoded a block from a non-canonical stream", name)
		}
		if br.Err() == nil {
			t.Errorf("%s: ReadBlocks accepted non-canonical stream", name)
		}
	}
}

func TestScannerHeaderErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":            nil,
		"short magic":      []byte("BT"),
		"bad magic":        []byte("XXXXXXXX"),
		"missing name len": magic[:],
		"huge name len":    newStream().uvarint(maxNameLen + 1).bytes(),
		"truncated name":   newStream().uvarint(10).raw('a', 'b').bytes(),
		"missing count":    newStream().name("n").bytes(),
	}
	for name, data := range cases {
		if _, err := ReadBlocks(bytes.NewReader(data), 8); err == nil {
			t.Errorf("%s: ReadBlocks succeeded", name)
		}
	}
}

// TestEncodingCanonical pins the canonical-encoding invariant the
// decoders enforce: any stream Read accepts re-encodes to exactly the
// bytes consumed, so decode∘encode is the identity on decodable streams
// (FuzzTraceRead extends this to arbitrary inputs).
func TestEncodingCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 50; iter++ {
		tr, _ := localityTrace("canon", rng.Intn(2000), rng.Int63())
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("iter %d: Read: %v", iter, err)
		}
		var buf2 bytes.Buffer
		if err := got.Write(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("iter %d: re-encode differs: %d vs %d bytes", iter, buf.Len(), buf2.Len())
		}
	}
}
