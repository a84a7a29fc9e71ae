package trace

import (
	"sync"
	"testing"
)

var packTestRecords = []Record{
	{PC: 0x400, Taken: true},
	{PC: 0x404, Taken: false},
	{PC: 0x400, Taken: false},
	{PC: 0x408, Taken: true, Backward: true},
	{PC: 0x404, Taken: true},
}

func packTestTrace() *Trace { return build("packed", packTestRecords) }

func TestPackRoundTrip(t *testing.T) {
	tr := packTestTrace()
	p := tr.Packed()
	if p.Name() != tr.Name() {
		t.Errorf("Name = %q, want %q", p.Name(), tr.Name())
	}
	if p.Len() != tr.Len() {
		t.Fatalf("Len = %d, want %d", p.Len(), tr.Len())
	}
	for i, want := range packTestRecords {
		if got := p.Record(i); got != want {
			t.Errorf("record %d: %v, want %v", i, got, want)
		}
		if p.Taken(i) != want.Taken || p.Backward(i) != want.Backward {
			t.Errorf("record %d: bit columns disagree with record", i)
		}
	}
}

func TestPackDenseIDsFirstAppearance(t *testing.T) {
	p := packTestTrace().Packed()
	if p.NumBranches() != 3 {
		t.Fatalf("NumBranches = %d, want 3", p.NumBranches())
	}
	wantAddrs := []Addr{0x400, 0x404, 0x408}
	for id, want := range wantAddrs {
		if got := p.AddrOf(int32(id)); got != want {
			t.Errorf("AddrOf(%d) = 0x%x, want 0x%x", id, uint32(got), uint32(want))
		}
		back, ok := p.IDOf(want)
		if !ok || back != int32(id) {
			t.Errorf("IDOf(0x%x) = %d,%v, want %d,true", uint32(want), back, ok, id)
		}
	}
	wantIDs := []int32{0, 1, 0, 2, 1}
	for i, want := range wantIDs {
		if p.ID(i) != want {
			t.Errorf("ID(%d) = %d, want %d", i, p.ID(i), want)
		}
	}
	if _, ok := p.IDOf(0x999); ok {
		t.Error("IDOf of an absent address reported ok")
	}
}

func TestPackLargeBitsets(t *testing.T) {
	// Cross the 64-record word boundary and check every bit.
	recs := make([]Record, 200)
	for i := range recs {
		recs[i] = Record{
			PC:       Addr(0x100 + 4*(i%7)),
			Taken:    i%3 == 0,
			Backward: i%5 == 0,
		}
	}
	p := build("big", recs).Packed()
	if p.NumBranches() != 7 {
		t.Fatalf("NumBranches = %d, want 7", p.NumBranches())
	}
	for i, want := range recs {
		if p.Record(i) != want {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestPackEmptyTrace(t *testing.T) {
	p := New("empty", 0).Packed()
	if p.Len() != 0 || p.NumBranches() != 0 {
		t.Errorf("empty pack: len=%d branches=%d", p.Len(), p.NumBranches())
	}
}

func TestPackCounts(t *testing.T) {
	p := packTestTrace().Packed()
	want := []int32{2, 2, 1} // 0x400 ×2, 0x404 ×2, 0x408 ×1, in ID order
	counts := p.Counts()
	if len(counts) != len(want) {
		t.Fatalf("Counts len = %d, want %d", len(counts), len(want))
	}
	sum := int32(0)
	for id, w := range want {
		if counts[id] != w {
			t.Errorf("Counts[%d] = %d, want %d", id, counts[id], w)
		}
		sum += counts[id]
	}
	if int(sum) != p.Len() {
		t.Errorf("Counts sum to %d, want trace length %d", sum, p.Len())
	}
}

// TestTracePackedMemoized pins the memoized columnar view on Trace: the
// same pointer comes back on every call, and the build buffer is gone
// once the trace is packed.
func TestTracePackedMemoized(t *testing.T) {
	tr := packTestTrace()
	p1 := tr.Packed()
	if p1.Len() != tr.Len() {
		t.Fatalf("Packed().Len = %d, want %d", p1.Len(), tr.Len())
	}
	if p2 := tr.Packed(); p2 != p1 {
		t.Error("Packed() rebuilt the view")
	}
	if tr.records != nil {
		t.Errorf("packed trace still holds %d buffered records", len(tr.records))
	}
}

// TestTraceAppendAfterPackedPanics pins that a packed trace is frozen:
// the view is shared by every consumer, so appending to it is a bug.
func TestTraceAppendAfterPackedPanics(t *testing.T) {
	for name, tr := range map[string]*Trace{
		"packed":      packTestTrace(),
		"from-packed": FromPacked(packTestTrace().Packed()),
	} {
		tr.Packed()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Append after Packed did not panic", name)
				}
			}()
			tr.Append(Record{PC: 0x40c, Taken: true})
		}()
		if tr.Len() != len(packTestRecords) {
			t.Errorf("%s: Len = %d after the refused Append, want %d", name, tr.Len(), len(packTestRecords))
		}
	}
}

// TestTracePackedConcurrent hammers Packed() from many goroutines, with
// Len and Name racing the first call; under -race this pins the mutex
// protecting the memo and that Len never reads the released buffer.
func TestTracePackedConcurrent(t *testing.T) {
	tr := packTestTrace()
	var wg sync.WaitGroup
	views := make([]*Packed, 16)
	lens := make([]int, 16)
	for g := range views {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				lens[g] = tr.Len()
				_ = tr.Name()
			}
			views[g] = tr.Packed()
			if g%2 == 1 {
				lens[g] = tr.Len()
				_ = tr.Name()
			}
		}(g)
	}
	wg.Wait()
	for g := range views {
		if views[g] != views[0] {
			t.Fatalf("goroutine %d saw a different packed view", g)
		}
		if lens[g] != len(packTestRecords) {
			t.Fatalf("goroutine %d saw Len %d, want %d", g, lens[g], len(packTestRecords))
		}
	}
}
