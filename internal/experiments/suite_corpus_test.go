package experiments

import (
	"context"
	"testing"

	"branchcorr/internal/obs"
	"branchcorr/internal/runner"
)

// TestSuiteCorpusReuse is the acceptance gate for the experiments-side
// corpus integration: a second suite construction over the same corpus
// directory must load every trace from the store (all hits, no
// generation), yield record-identical traces, and render a byte-identical
// report.
func TestSuiteCorpusReuse(t *testing.T) {
	dir := t.TempDir()
	mk := func(reg *obs.Registry) *Suite {
		s, err := NewSuite(Config{
			Length:    3_000,
			Workloads: []string{"gcc", "compress"},
			CorpusDir: dir,
			Obs:       reg,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	reg1 := obs.New()
	s1 := mk(reg1)
	if h, m := reg1.Counter("corpus.hits").Value(), reg1.Counter("corpus.misses").Value(); h != 0 || m != 2 {
		t.Fatalf("first run: hits=%d misses=%d, want 0/2", h, m)
	}

	reg2 := obs.New()
	s2 := mk(reg2)
	if h, m := reg2.Counter("corpus.hits").Value(), reg2.Counter("corpus.misses").Value(); h != 2 || m != 0 {
		t.Fatalf("second run: hits=%d misses=%d, want 2/0", h, m)
	}

	for i, tr := range s1.traces {
		got := s2.traces[i]
		if got.Name() != tr.Name() || got.Len() != tr.Len() {
			t.Fatalf("trace %d: %q/%d vs %q/%d", i, got.Name(), got.Len(), tr.Name(), tr.Len())
		}
		gp, tp := got.Packed(), tr.Packed()
		for j := 0; j < tr.Len(); j++ {
			if gp.Record(j) != tp.Record(j) {
				t.Fatalf("%s: record %d differs between generated and corpus-loaded trace", tr.Name(), j)
			}
		}
	}

	// The corpus-loaded suite must render the same bytes as the
	// generated one: a report exhibit exercises sim + oracle over the
	// pre-seeded Packed view.
	render := func(s *Suite) string {
		rep, err := s.BuildReport(context.Background(), []string{"table2"}, runner.Options{Parallel: 2})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Table2 == nil {
			t.Fatal("table2 missing from report")
		}
		return rep.Render()
	}
	if a, b := render(s1), render(s2); a != b {
		t.Errorf("corpus-loaded report differs from generated report:\n--- generated ---\n%s\n--- loaded ---\n%s", a, b)
	}
}

// TestSuiteDefaultSkipsCorpus pins that the default configuration never
// touches the store or its counters, so the CI metrics golden is
// unaffected by the corpus integration.
func TestSuiteDefaultSkipsCorpus(t *testing.T) {
	reg := obs.New()
	if _, err := NewSuite(Config{Length: 500, Workloads: []string{"xlisp"}, Obs: reg}, nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"corpus.hits", "corpus.misses", "corpus.errors"} {
		if v := reg.Counter(c).Value(); v != 0 {
			t.Errorf("%s = %d on default (no CorpusDir) path, want 0", c, v)
		}
	}
}
