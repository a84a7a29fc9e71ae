package trace

import (
	"reflect"
	"testing"
)

func mkRecords(pcBase Addr, n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{PC: pcBase + Addr(i%7)*4, Taken: i%3 != 0}
	}
	return recs
}

func TestInterleaveRoundRobin(t *testing.T) {
	a := mkRecords(0x100, 10)
	b := mkRecords(0x900, 10)
	out := Interleave("ab", 4, build("a", a), build("b", b))
	if out.Len() != 20 {
		t.Fatalf("len = %d, want 20", out.Len())
	}
	// Expect a[0:4], b[0:4], a[4:8], b[4:8], a[8:10], b[8:10].
	want := append([]Record{}, a[0:4]...)
	want = append(want, b[0:4]...)
	want = append(want, a[4:8]...)
	want = append(want, b[4:8]...)
	want = append(want, a[8:10]...)
	want = append(want, b[8:10]...)
	got := recordsOf(out)
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("record %d = %v, want %v", i, got[i], w)
		}
	}
}

func TestInterleaveUnequalLengths(t *testing.T) {
	out := Interleave("ab", 5, build("a", mkRecords(0x100, 13)), build("b", mkRecords(0x900, 3)))
	if out.Len() != 16 {
		t.Fatalf("len = %d, want 16", out.Len())
	}
	// b contributes only its 3 records in the first round.
	if out.Packed().Record(5).PC < 0x900 {
		t.Error("b's records missing from first round")
	}
}

func TestInterleavePreservesPerProgramOrder(t *testing.T) {
	a := mkRecords(0x100, 50)
	b := mkRecords(0x900, 37)
	out := Interleave("ab", 8, build("a", a), build("b", b))
	var gotA, gotB []Record
	for _, r := range recordsOf(out) {
		if r.PC < 0x900 {
			gotA = append(gotA, r)
		} else {
			gotB = append(gotB, r)
		}
	}
	if !reflect.DeepEqual(gotA, a) {
		t.Fatalf("a's records or order broken: got %d of %d", len(gotA), len(a))
	}
	if !reflect.DeepEqual(gotB, b) {
		t.Fatalf("b's records or order broken: got %d of %d", len(gotB), len(b))
	}
}

func TestInterleaveEdgeCases(t *testing.T) {
	if out := Interleave("none", 4); out.Len() != 0 {
		t.Error("no traces should give empty result")
	}
	recs := mkRecords(0x100, 5)
	a := build("a", recs)
	if out := Interleave("solo", 2, a); !reflect.DeepEqual(recordsOf(out), recs) {
		t.Fatal("single-trace interleave should be identity")
	}
	defer func() {
		if recover() == nil {
			t.Error("quantum 0 should panic")
		}
	}()
	Interleave("bad", 0, a)
}
