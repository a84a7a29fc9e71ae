package lint

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// A baseline grandfathers known findings: CI fails on findings not in
// the baseline (no new debt) and on baseline entries that no longer
// occur (burned-down debt must be removed by regenerating the file, so
// the baseline only ever shrinks deliberately). Entries are keyed by
// (file, rule, msg) with a count, not by line, so unrelated edits that
// shift a grandfathered finding a few lines don't break CI.
type Baseline struct {
	Version  int             `json:"version"`
	Findings []BaselineEntry `json:"findings"`
}

// BaselineEntry is one grandfathered finding key.
type BaselineEntry struct {
	File  string `json:"file"`
	Rule  string `json:"rule"`
	Msg   string `json:"msg"`
	Count int    `json:"count"`
}

type baselineKey struct{ file, rule, msg string }

// NewBaseline builds a baseline from the current findings (paths
// relativized to root), in canonical order.
func NewBaseline(findings []Finding, root string) *Baseline {
	counts := make(map[baselineKey]int)
	for _, f := range findings {
		counts[baselineKey{relPath(root, f.Pos.Filename), f.Rule, f.Msg}]++
	}
	// A clean tree saves as "findings": [], not null.
	b := &Baseline{Version: 1, Findings: []BaselineEntry{}}
	for k, n := range counts {
		b.Findings = append(b.Findings, BaselineEntry{File: k.file, Rule: k.rule, Msg: k.msg, Count: n})
	}
	sort.Slice(b.Findings, func(i, j int) bool {
		a, c := b.Findings[i], b.Findings[j]
		if a.File != c.File {
			return a.File < c.File
		}
		if a.Rule != c.Rule {
			return a.Rule < c.Rule
		}
		return a.Msg < c.Msg
	})
	return b
}

// LoadBaseline reads a baseline file. A missing file is an empty
// baseline, so bplint works unchanged in trees that have none.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return &Baseline{Version: 1}, nil
		}
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("lint: parsing baseline %s: %w", path, err)
	}
	return &b, nil
}

// Save writes the baseline in its canonical formatting.
func (b *Baseline) Save(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Diff splits the current findings against the baseline: New holds the
// findings beyond each key's grandfathered count (per key, the trailing
// occurrences in line order are the new ones), Stale the baseline
// entries whose keys now occur fewer times than recorded.
func (b *Baseline) Diff(findings []Finding, root string) (news []Finding, stale []BaselineEntry) {
	budget := make(map[baselineKey]int, len(b.Findings))
	for _, e := range b.Findings {
		n := e.Count
		if n <= 0 {
			n = 1
		}
		budget[baselineKey{e.File, e.Rule, e.Msg}] = n
	}
	seen := make(map[baselineKey]int)
	for _, f := range findings {
		k := baselineKey{relPath(root, f.Pos.Filename), f.Rule, f.Msg}
		seen[k]++
		if seen[k] > budget[k] {
			news = append(news, f)
		}
	}
	for _, e := range b.Findings {
		k := baselineKey{e.File, e.Rule, e.Msg}
		n := e.Count
		if n <= 0 {
			n = 1
		}
		if seen[k] < n {
			stale = append(stale, e)
		}
	}
	return news, stale
}
