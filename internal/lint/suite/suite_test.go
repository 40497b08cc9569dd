package suite_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rtseed/internal/lint"
	"rtseed/internal/lint/analysistest"
	"rtseed/internal/lint/suite"
)

// TestOneAnalyzerPerWantLine runs the whole suite over every fixture, in
// suite order and one session, ignoring scope the way analysistest does. Each
// line a fixture expects findings on must be caught by exactly one analyzer:
// a line two analyzers catch is an overlap, and one of them should give the
// rule up.
func TestOneAnalyzerPerWantLine(t *testing.T) {
	const root = "../testdata/src"
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			pkg := analysistest.Load(t, filepath.Join(root, e.Name()))
			session := lint.NewSession()
			caught := map[string][]string{} // file:line -> analyzers
			for _, a := range suite.Analyzers {
				diags, err := lint.RunAnalyzer(a, pkg, session)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range diags {
					key := fmt.Sprintf("%s:%d", d.File, d.Line)
					if !slices.Contains(caught[key], a.Name) {
						caught[key] = append(caught[key], a.Name)
					}
				}
			}
			for _, w := range analysistest.WantLines(t, pkg) {
				key := fmt.Sprintf("%s:%d", w.Filename, w.Line)
				if got := caught[key]; len(got) != 1 {
					t.Errorf("%s: caught by %v, want exactly one analyzer", key, got)
				}
			}
		})
	}
}
