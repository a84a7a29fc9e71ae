package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"branchcorr/internal/workloads"
)

// TestMain lets the tests run the command in a child process: with
// BPSIM_RUN_MAIN=1 the test binary is bpsim itself, taking its flags
// from the child's arguments.
func TestMain(m *testing.M) {
	if os.Getenv("BPSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runBpsim runs the command with args and returns its stdout, stderr
// and exit error.
func runBpsim(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BPSIM_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

// predictorLines keeps the per-predictor result lines, dropping the
// header (which names the mode) and anything else.
func predictorLines(t *testing.T, out string) []string {
	t.Helper()
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "  ") {
			lines = append(lines, l)
		}
	}
	if len(lines) == 0 {
		t.Fatalf("no predictor lines in output:\n%s", out)
	}
	return lines
}

// writeTrace stores a generated workload trace as a BTR1 file and
// returns its path and bytes.
func writeTrace(t *testing.T) (string, []byte) {
	t.Helper()
	w, err := workloads.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.Generate(20_000).Write(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gcc.btr")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

// TestStreamMatchesInMemory pins bpsim -stream, the streamed simulation
// path, to the in-memory run: at every chunk size the predictor lines
// are identical, for kernel-backed predictors and for ones without a
// kernel (tage, hybrid) alike.
func TestStreamMatchesInMemory(t *testing.T) {
	path, _ := writeTrace(t)
	specs := []string{"-p", "gshare:10", "-p", "pas:8,6,4", "-p", "tage", "-p", "hybrid:(gshare:8),(bimodal:6),4"}
	out, stderr, err := runBpsim(t, append([]string{"-trace", path}, specs...)...)
	if err != nil {
		t.Fatalf("in-memory run: %v\n%s", err, stderr)
	}
	want := predictorLines(t, out)
	if len(want) != 4 {
		t.Fatalf("in-memory run printed %d predictor lines, want 4:\n%s", len(want), out)
	}
	for _, chunk := range []string{"1", "7", "65536"} {
		out, stderr, err := runBpsim(t, append([]string{"-stream", "-chunk", chunk, "-trace", path}, specs...)...)
		if err != nil {
			t.Fatalf("-stream -chunk %s: %v\n%s", chunk, err, stderr)
		}
		if !strings.Contains(out, "(streamed)") {
			t.Errorf("-stream -chunk %s: header does not name the streamed mode:\n%s", chunk, out)
		}
		got := predictorLines(t, out)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("-stream -chunk %s differs from the in-memory run:\n%s\nwant:\n%s",
				chunk, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestStreamTruncatedFails: a truncated trace file must make -stream
// exit with an error rather than print results for a partial trace.
func TestStreamTruncatedFails(t *testing.T) {
	_, data := writeTrace(t)
	path := filepath.Join(t.TempDir(), "cut.btr")
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	out, stderr, err := runBpsim(t, "-stream", "-trace", path, "-p", "gshare:10")
	if err == nil {
		t.Fatalf("-stream on a truncated file succeeded:\n%s", out)
	}
	if !strings.Contains(stderr, "bpsim:") {
		t.Errorf("stderr does not report the error: %q", stderr)
	}
	if strings.Contains(out, "gshare") {
		t.Errorf("printed results for a truncated trace:\n%s", out)
	}
}
