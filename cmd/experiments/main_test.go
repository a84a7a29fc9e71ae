package main

import (
	"errors"
	"strings"
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/experiments"
)

func TestWantExhibitsAll(t *testing.T) {
	for _, spec := range []string{"all", ""} {
		want, err := wantExhibits(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if len(want) != len(experiments.ExhibitOrder()) {
			t.Errorf("%q selected %d exhibits", spec, len(want))
		}
	}
}

func TestWantExhibitsSubset(t *testing.T) {
	want, err := wantExhibits("fig4, table2")
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 || !want["fig4"] || !want["table2"] {
		t.Errorf("want = %v", want)
	}
}

func TestWantExhibitsUnknown(t *testing.T) {
	if _, err := wantExhibits("fig4,bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("err = %v, want unknown-exhibit error naming bogus", err)
	}
}

// TestFig9WorkloadSubsetSkip is the regression test for the -workloads
// validation bug: the fig9 check used to read a shadowed Config whose
// Fig9Benchmarks came from suite defaults while the outer (pre-default)
// config was the one main kept using. The skip decision is now
// Suite.Fig9Available against the suite's traces.
func TestFig9WorkloadSubsetSkip(t *testing.T) {
	// A -workloads subset without perl: fig9 (gcc and perl) must report
	// unavailable.
	subset, err := experiments.NewSuite(experiments.Config{
		Length:    2_000,
		Workloads: []string{"gcc", "compress"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if subset.Fig9Available() {
		t.Error("fig9 reported available without perl in the suite")
	}

	// With both default fig9 benchmarks present it must be available.
	full, err := experiments.NewSuite(experiments.Config{
		Length:    2_000,
		Workloads: []string{"gcc", "perl"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Fig9Available() {
		t.Error("fig9 reported unavailable with gcc and perl present")
	}
}

// TestRunFig9OnlyWithoutBenchmarks pins that a fig9-only request whose
// -workloads lack gcc or perl fails with the requirement instead of
// building every exhibit (an empty exhibit list reads as "all").
func TestRunFig9OnlyWithoutBenchmarks(t *testing.T) {
	err := run(options{n: 2_000, wls: "gcc", exhibits: "fig9", quiet: true})
	if err == nil || !strings.Contains(err.Error(), "fig9 needs gcc and perl") {
		t.Errorf("err = %v, want fig9's gcc/perl requirement", err)
	}
}

// TestRunUnknownExhibit pins the one-prefix diagnostic: main prints
// "experiments: " before the error, so the error must not repeat it.
func TestRunUnknownExhibit(t *testing.T) {
	err := run(options{n: 1_000, exhibits: "table1,bogus", quiet: true})
	if err == nil || !strings.HasPrefix(err.Error(), `unknown exhibit "bogus"`) {
		t.Errorf("err = %v, want it to start with the unknown exhibit", err)
	}
}

// TestRunRejectsBadSpec pins that a bad -p fails the run up front, even
// when no requested exhibit would run it.
func TestRunRejectsBadSpec(t *testing.T) {
	err := run(options{n: 1_000, wls: "gcc", exhibits: "table1", quiet: true, specs: []string{"bogus"}})
	var pe *bp.ParseError
	if !errors.As(err, &pe) || pe.Token != "bogus" {
		t.Errorf("err = %v, want a parse error naming bogus", err)
	}
}
