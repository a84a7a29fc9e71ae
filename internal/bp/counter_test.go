package bp

import (
	"testing"
	"testing/quick"

	"branchcorr/internal/trace"
)

func TestCounter2Transitions(t *testing.T) {
	cases := []struct {
		c     Counter2
		taken bool
		want  Counter2
	}{
		{StronglyNotTaken, true, WeaklyNotTaken},
		{WeaklyNotTaken, true, WeaklyTaken},
		{WeaklyTaken, true, StronglyTaken},
		{StronglyTaken, true, StronglyTaken}, // saturates high
		{StronglyTaken, false, WeaklyTaken},
		{WeaklyTaken, false, WeaklyNotTaken},
		{WeaklyNotTaken, false, StronglyNotTaken},
		{StronglyNotTaken, false, StronglyNotTaken}, // saturates low
	}
	for _, c := range cases {
		if got := c.c.Next(c.taken); got != c.want {
			t.Errorf("Counter2(%d).Next(%v) = %d, want %d", c.c, c.taken, got, c.want)
		}
	}
}

func TestCounter2Prediction(t *testing.T) {
	for c, want := range map[Counter2]bool{
		StronglyNotTaken: false,
		WeaklyNotTaken:   false,
		WeaklyTaken:      true,
		StronglyTaken:    true,
	} {
		if got := c.Taken(); got != want {
			t.Errorf("Counter2(%d).Taken() = %v, want %v", c, got, want)
		}
	}
}

// Property: a counter always stays within [0, 3] under any update
// sequence, and two consecutive same-direction updates always make the
// prediction agree with that direction (the 2-bit hysteresis bound).
func TestCounter2Properties(t *testing.T) {
	inRange := func(start uint8, updates []bool) bool {
		c := Counter2(start % 4)
		for _, u := range updates {
			c = c.Next(u)
			if c > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(inRange, nil); err != nil {
		t.Error(err)
	}
	converges := func(start uint8, dir bool) bool {
		c := Counter2(start % 4)
		c = c.Next(dir).Next(dir)
		return c.Taken() == dir
	}
	if err := quick.Check(converges, nil); err != nil {
		t.Error(err)
	}
}

func rec(pc trace.Addr, taken bool) trace.Record {
	return trace.Record{PC: pc, Taken: taken}
}

func backRec(pc trace.Addr, taken bool) trace.Record {
	return trace.Record{PC: pc, Taken: taken, Backward: true}
}

func TestStaticPredictors(t *testing.T) {
	fwd := rec(0x100, false)
	back := backRec(0x200, false)
	if !(AlwaysTaken{}).Predict(fwd) || (AlwaysNotTaken{}).Predict(fwd) {
		t.Error("always-taken/not-taken predictions wrong")
	}
	if (BTFNT{}).Predict(fwd) || !(BTFNT{}).Predict(back) {
		t.Error("BTFNT should predict backward taken, forward not-taken")
	}
	// Updates are no-ops but must not panic.
	(AlwaysTaken{}).Update(fwd)
	(AlwaysNotTaken{}).Update(fwd)
	(BTFNT{}).Update(back)
	for _, p := range []Predictor{AlwaysTaken{}, AlwaysNotTaken{}, BTFNT{}} {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
	}
}

func TestIdealStatic(t *testing.T) {
	tr := trace.New("t", 0)
	// PC 0x10: 3 taken, 1 not -> majority taken.
	for _, tk := range []bool{true, true, false, true} {
		tr.Append(rec(0x10, tk))
	}
	// PC 0x20: 1 taken, 2 not -> majority not-taken.
	for _, tk := range []bool{false, true, false} {
		tr.Append(rec(0x20, tk))
	}
	p := NewIdealStatic(trace.Summarize(tr))
	if !p.Predict(rec(0x10, false)) {
		t.Error("0x10 should predict taken")
	}
	if p.Predict(rec(0x20, false)) {
		t.Error("0x20 should predict not-taken")
	}
	if !p.Predict(rec(0x999, false)) {
		t.Error("unprofiled branch should default to taken")
	}
	p.Update(rec(0x20, true)) // must not adapt
	if p.Predict(rec(0x20, false)) {
		t.Error("ideal static must not adapt on update")
	}
}

// idealStaticIsCeiling: over any trace, the ideal static predictor's
// accuracy equals sum of per-branch majority counts — no static
// per-branch assignment can beat it.
func TestIdealStaticIsStaticCeiling(t *testing.T) {
	tr := trace.New("t", 0)
	outs := []bool{true, false, true, true, false, true, false, false, true, true}
	for i, o := range outs {
		tr.Append(rec(trace.Addr(0x10+(i%3)*4), o))
	}
	st := trace.Summarize(tr)
	p := NewIdealStatic(st)
	correct := 0
	for _, r := range recordsOf(tr) {
		if p.Predict(r) == r.Taken {
			correct++
		}
	}
	wantCorrect := 0
	for _, site := range st.Sites {
		maj := site.Taken
		if nt := site.Count - site.Taken; nt > maj {
			maj = nt
		}
		wantCorrect += maj
	}
	if correct != wantCorrect {
		t.Errorf("ideal static correct = %d, want %d", correct, wantCorrect)
	}
}

func TestBimodal(t *testing.T) {
	p := NewBimodal(10)
	r := rec(0x40, true)
	if p.Predict(r) {
		t.Error("cold bimodal should predict not-taken (counters start at 0)")
	}
	p.Update(r)
	p.Update(r)
	if !p.Predict(r) {
		t.Error("after two taken updates, should predict taken")
	}
	// A branch aliasing to the same counter (same low bits) interferes.
	alias := rec(0x40+trace.Addr(1<<12), false) // 10 bits after >>2 => +4096 aliases
	if !p.Predict(alias) {
		t.Error("aliased branch should see the trained counter")
	}
	p.Reset()
	if p.Predict(r) {
		t.Error("Reset should clear counters")
	}
	if p.Name() != "bimodal(10)" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestBimodalLearnsBiasedBranch(t *testing.T) {
	p := NewBimodal(12)
	miss := 0
	for i := 0; i < 1000; i++ {
		r := rec(0x80, true)
		if p.Predict(r) != r.Taken {
			miss++
		}
		p.Update(r)
	}
	if miss > 2 {
		t.Errorf("bimodal missed %d times on an always-taken branch", miss)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("bimodal 0", func() { NewBimodal(0) })
	mustPanic("bimodal 31", func() { NewBimodal(31) })
	mustPanic("gshare 0", func() { NewGshare(0) })
	mustPanic("gshare 27", func() { NewGshare(27) })
	mustPanic("gas hist", func() { NewGAs(0, 2) })
	mustPanic("gas addr", func() { NewGAs(8, 13) })
	mustPanic("ifgshare", func() { NewIFGshare(0) })
	mustPanic("pas hist", func() { NewPAs(0, 8, 2) })
	mustPanic("pas bht", func() { NewPAs(8, 0, 2) })
	mustPanic("pas pht", func() { NewPAs(8, 8, 13) })
	mustPanic("ifpas", func() { NewIFPAs(0) })
	mustPanic("path depth", func() { NewPath(0, 10) })
	mustPanic("path bits", func() { NewPath(4, 0) })
	mustPanic("hybrid", func() { NewHybrid(AlwaysTaken{}, AlwaysNotTaken{}, 0) })
	mustPanic("fixedk lo", func() { NewFixedK(0) })
	mustPanic("fixedk hi", func() { NewFixedK(33) })
}

// recordsOf reads a trace back as records from its packed columns.
func recordsOf(tr *trace.Trace) []trace.Record {
	pt := tr.Packed()
	recs := make([]trace.Record, pt.Len())
	for i := range recs {
		recs[i] = pt.Record(i)
	}
	return recs
}
