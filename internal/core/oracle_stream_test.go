package core

import (
	"bytes"
	"fmt"
	"testing"

	"branchcorr/internal/corpus"
	"branchcorr/internal/obs"
	"branchcorr/internal/trace"
)

// Chunked-input differential tests: a trace that reaches the oracle
// through the chunked BPK1 corpus encoding — the path by which stored
// and uploaded traces are loaded — must give bit-identical results to
// the in-memory trace at every stored chunk size, including chunk sizes
// straddling the window length and one record per chunk. The packed
// in-memory path is itself pinned against the reference implementation.

// streamChunks returns the adversarial chunk sizes for window length w:
// single-record, window±1, and a large chunk.
func streamChunks(w int) []int {
	return []int{1, w - 1, w, w + 1, 1000}
}

// chunked returns tr after a round trip through the BPK1 encoding at the
// given chunk length.
func chunked(t *testing.T, tr *trace.Trace, chunk int) *trace.Trace {
	t.Helper()
	var buf bytes.Buffer
	if err := corpus.Encode(&buf, tr.Packed(), chunk); err != nil {
		t.Fatal(err)
	}
	got, stored, err := corpus.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if stored != chunk {
		t.Fatalf("stored chunk length %d, want %d", stored, chunk)
	}
	return trace.FromPacked(got)
}

func TestProfileCandidatesBlocksMatchesPacked(t *testing.T) {
	for _, tr := range differentialTraces() {
		for _, w := range []int{8, 16, 32} {
			opts := OracleOptions{OracleConfig: OracleConfig{WindowLen: w}, Stage: StageProfile}
			want := Oracle(tr, opts).Candidates
			for _, chunk := range streamChunks(w) {
				t.Run(fmt.Sprintf("%s/w=%d/chunk=%d", tr.Name(), w, chunk), func(t *testing.T) {
					mustEqualCandidates(t, Oracle(chunked(t, tr, chunk), opts).Candidates, want)
				})
			}
		}
	}
}

func TestSelectRefsBlocksMatchesPacked(t *testing.T) {
	for _, tr := range differentialTraces() {
		cfg := OracleConfig{WindowLen: 16}
		cands := Oracle(tr, OracleOptions{OracleConfig: cfg, Stage: StageProfile}).Candidates
		opts := OracleOptions{OracleConfig: cfg, Stage: StageSelect, Candidates: cands}
		want := Oracle(tr, opts)
		for _, chunk := range streamChunks(16) {
			mustEqualSelections(t, Oracle(chunked(t, tr, chunk), opts), want)
		}
	}
}

// TestBuildSelectiveBlocksFromDisk closes the full loop: store the trace
// in an on-disk corpus, load it back, and run the full pipeline.
func TestBuildSelectiveBlocksFromDisk(t *testing.T) {
	st, err := corpus.Open(t.TempDir(), obs.New())
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range differentialTraces() {
		cfg := OracleConfig{WindowLen: 16}
		want := Oracle(tr, OracleOptions{OracleConfig: cfg})
		key := corpus.Key(tr.Name(), tr.Len(), "test")
		if err := st.PutPacked(key, tr.Packed()); err != nil {
			t.Fatal(err)
		}
		loaded, err := st.LoadTrace(key)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualSelections(t, Oracle(loaded, OracleOptions{OracleConfig: cfg}), want)
	}
}

// TestStreamDifferentialPrunePressure drives the profile pass through
// repeated watermark prunes (tiny MaxCandidates), where any divergence
// in the decoded record order would change which candidates are
// evicted.
func TestStreamDifferentialPrunePressure(t *testing.T) {
	tr := randomTrace(9, 800, 30)
	opts := OracleOptions{OracleConfig: OracleConfig{WindowLen: 32, MaxCandidates: 8}, Stage: StageProfile}
	want := Oracle(tr, opts).Candidates
	for _, chunk := range []int{1, 31, 33, 777} {
		mustEqualCandidates(t, Oracle(chunked(t, tr, chunk), opts).Candidates, want)
	}
}

// TestStreamDifferentialSchemes checks scheme filtering over chunked
// input.
func TestStreamDifferentialSchemes(t *testing.T) {
	tr := randomTrace(7, 500, 10)
	for _, schemes := range [][]Scheme{{Occurrence}, {BackwardCount}} {
		opts := OracleOptions{OracleConfig: OracleConfig{Schemes: schemes}}
		mustEqualSelections(t, Oracle(chunked(t, tr, 37), opts), Oracle(tr, opts))
	}
}

func TestOracleBlocksEmptyTrace(t *testing.T) {
	tr := chunked(t, trace.New("empty", 0), 8)
	if cands := Oracle(tr, OracleOptions{Stage: StageProfile}).Candidates; len(cands) != 0 {
		t.Fatalf("empty profile: %d candidates", len(cands))
	}
	sel := Oracle(tr, OracleOptions{})
	for k := 1; k <= MaxSelectiveRefs; k++ {
		if len(sel.BySize[k]) != 0 {
			t.Errorf("empty trace produced size-%d assignments", k)
		}
	}
}
