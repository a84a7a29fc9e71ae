package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// copyFixtureTree clones testdata/src into a temp dir so -fix can
// rewrite files without touching the committed fixtures.
func copyFixtureTree(t *testing.T) string {
	t.Helper()
	src := filepath.Join("testdata", "src")
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copy fixtures: %v", err)
	}
	return dst
}

func runRules(t *testing.T, root, ruleIDs string) []Finding {
	t.Helper()
	pkgs, err := Load(root)
	if err != nil {
		t.Fatalf("Load(%s): %v", root, err)
	}
	rules, err := SelectRules(ruleIDs)
	if err != nil {
		t.Fatal(err)
	}
	return Run(pkgs, rules)
}

// TestDepAPIFix pins that dep-api reports without rewriting: the rule
// carries no mechanical fixes, so every deprecated use in the fixture is
// a finding without a Fix and -fix leaves the files untouched for a
// human to migrate.
func TestDepAPIFix(t *testing.T) {
	root := copyFixtureTree(t)
	findings := runRules(t, root, "dep-api")
	if len(findings) != 8 {
		t.Fatalf("dep-api findings = %d, want 8: %v", len(findings), findings)
	}
	for _, f := range findings {
		if f.Fix != nil {
			t.Errorf("dep-api finding carries a fix: %s", f)
		}
	}
	changed, err := ApplyFixes(findings)
	if err != nil {
		t.Fatalf("ApplyFixes: %v", err)
	}
	if len(changed) != 0 {
		t.Errorf("-fix rewrote %v; dep-api findings must not be auto-fixed", changed)
	}
}

// TestStaleIgnoreFix applies the ignore-reason delete fix: the stale
// directive is removed, the re-run is stale-free, and the justified and
// unjudged directives survive.
func TestStaleIgnoreFix(t *testing.T) {
	root := copyFixtureTree(t)
	const rules = "det-time,ignore-reason"
	var stale []Finding
	for _, f := range runRules(t, root, rules) {
		if f.Rule == "ignore-reason" && strings.Contains(f.Msg, "stale") {
			stale = append(stale, f)
		}
	}
	if len(stale) != 1 {
		t.Fatalf("stale findings = %d, want 1: %v", len(stale), stale)
	}
	if stale[0].Fix == nil {
		t.Fatal("stale ignore finding carries no delete fix")
	}
	changed, err := ApplyFixes(stale)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 1 {
		t.Fatalf("changed = %v, want the ignorefix file", changed)
	}
	data, err := os.ReadFile(changed[0])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "the clock call was removed long ago") {
		t.Error("stale directive still present after fix")
	}
	if !strings.Contains(string(data), "justified wall-clock suppression") {
		t.Error("fix deleted the justified directive too")
	}
	for _, f := range runRules(t, root, rules) {
		if f.Rule == "ignore-reason" && strings.Contains(f.Msg, "stale") {
			t.Errorf("stale finding survives the fix: %s", f)
		}
	}
}

// TestApplyEditsOverlap pins the overlap policy: of two overlapping
// edits the earlier-starting one wins, and out-of-range edits are
// dropped.
func TestApplyEditsOverlap(t *testing.T) {
	src := []byte("abcdefgh")
	out, n := applyEdits(src, []Edit{
		{Off: 2, End: 4, New: "XY"},  // applies
		{Off: 3, End: 6, New: "no"},  // overlaps the first: dropped
		{Off: 6, End: 8, New: "ZZZ"}, // applies
		{Off: 90, End: 99, New: "x"}, // out of range: dropped
	})
	if n != 2 || string(out) != "abXYefZZZ" {
		t.Errorf("applyEdits = %q (%d applied), want %q (2)", out, n, "abXYefZZZ")
	}
}
