package trace

import (
	"bytes"
	"testing"
)

// FuzzTraceRead hammers the BTR1 decoder with arbitrary bytes. Three
// properties must hold on every input:
//
//  1. Read never panics and never allocates proportionally to header
//     claims (the OOM hardening; a makeslice panic fails the target).
//  2. Canonical prefix identity: when Read accepts, re-encoding the
//     trace reproduces exactly the bytes the decoder consumed — i.e.
//     the input begins with the canonical encoding.
//  3. The streaming block decoder (ReadBlocks) agrees with Read record
//     for record on every accepted input, so the two decoders cannot
//     drift.
func FuzzTraceRead(f *testing.F) {
	tr, _ := localityTrace("seed", 300, 17)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	empty := New("e", 0)
	var ebuf bytes.Buffer
	if err := empty.Write(&ebuf); err != nil {
		f.Fatal(err)
	}
	f.Add(ebuf.Bytes())
	f.Add(newStream().name("x").uvarint(1 << 60).bytes())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := tr.Write(&enc); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
		if enc.Len() > len(data) || !bytes.Equal(data[:enc.Len()], enc.Bytes()) {
			t.Fatalf("canonical violation: accepted %d bytes, re-encode %d bytes differs", len(data), enc.Len())
		}
		rt, err := Read(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if rt.Name() != tr.Name() || rt.Len() != tr.Len() {
			t.Fatalf("round-trip: %q/%d vs %q/%d", rt.Name(), rt.Len(), tr.Name(), tr.Len())
		}
		br, err := ReadBlocks(bytes.NewReader(data), 7)
		if err != nil {
			t.Fatalf("ReadBlocks rejected header Read accepted: %v", err)
		}
		got := drainSource(t, br)
		if len(got) != tr.Len() {
			t.Fatalf("ReadBlocks decoded %d/%d records", len(got), tr.Len())
		}
		want := recordsOf(tr)
		for i, r := range got {
			if r != want[i] {
				t.Fatalf("ReadBlocks record %d diverges from Read", i)
			}
		}
	})
}

// FuzzReadBlocks pins the streaming block decoder against Read: both
// must accept/reject the same inputs and reconstruct the same records.
func FuzzReadBlocks(f *testing.F) {
	tr, _ := localityTrace("seed", 200, 5)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes(), 64)
	f.Add(buf.Bytes(), 1)
	f.Add(buf.Bytes()[:buf.Len()-3], 7)

	f.Fuzz(func(t *testing.T, data []byte, chunk int) {
		if chunk <= 0 || chunk > 1<<16 {
			chunk = 64
		}
		tr, wantErr := Read(bytes.NewReader(data))
		var want []Record
		if wantErr == nil {
			want = recordsOf(tr)
		}
		br, err := ReadBlocks(bytes.NewReader(data), chunk)
		if err != nil {
			if wantErr == nil {
				t.Fatalf("ReadBlocks rejected header Read accepted: %v", err)
			}
			return
		}
		pos := 0
		for {
			blk, ok := br.Next()
			if !ok {
				break
			}
			addrs := br.Addrs()
			for i, id := range blk.IDs {
				if wantErr == nil {
					r := Record{PC: addrs[id], Taken: blk.Taken1(i) != 0, Backward: blk.Back1(i) != 0}
					if pos+i >= len(want) || r != want[pos+i] {
						t.Fatalf("streamed record %d diverges from Read", pos+i)
					}
				}
			}
			pos += blk.Len()
		}
		if (br.Err() == nil) != (wantErr == nil) {
			t.Fatalf("decoder disagreement: blocks err %v, read err %v", br.Err(), wantErr)
		}
	})
}
