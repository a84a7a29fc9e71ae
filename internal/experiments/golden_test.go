package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestReportGolden pins the absolute bytes of goldenConfig's full report,
// text and JSON, against committed files. The other report tests compare
// two runs of the current code with each other (parallel 1 vs 8, kernel
// vs reference), so a change that shifts both sides alike would pass
// them; this one does not. Regenerate deliberately with
// go test ./internal/experiments/ -run ReportGolden -update-golden
func TestReportGolden(t *testing.T) {
	gotJSON, gotText := buildJSON(t, 4)
	for _, f := range []struct{ name, got string }{
		{"report.golden.txt", gotText},
		{"report.golden.json", gotJSON},
	} {
		path := filepath.Join("testdata", f.name)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(f.got), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote %s", path)
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update-golden)", err)
		}
		if !bytes.Equal([]byte(f.got), want) {
			t.Errorf("report drifted from %s (regenerate with -update-golden if intended): got %d bytes, want %d",
				path, len(f.got), len(want))
		}
	}
}
