// Package suite assembles the full rtseed-vet analyzer suite and its driver
// logic in one importable place, so the CLI (cmd/rtseed-vet), the in-test
// self-check (internal/lint/selfcheck_test.go), and the CLI tests all run
// exactly the same analysis.
package suite

import (
	"encoding/json"
	"fmt"
	"io"

	"rtseed/internal/lint"
	"rtseed/internal/lint/bodystep"
	"rtseed/internal/lint/detflow"
	"rtseed/internal/lint/eventhandle"
	"rtseed/internal/lint/exhaustive"
	"rtseed/internal/lint/isoshare"
	"rtseed/internal/lint/kernelctx"
	"rtseed/internal/lint/noalloc"
	"rtseed/internal/lint/timeunits"
	"rtseed/internal/lint/waiverdrift"
)

// Analyzers is the vet suite, one analyzer per contract. The driver runs the
// per-package analyzers first, then the module analyzers in this order, all
// in one lint.Session: the call graph and function summaries are built once
// and reused by detflow, noalloc, isoshare, kernelctx and waiverdrift, and
// waiverdrift, which must stay last, audits the waivers from the record the
// others left in the session.
var Analyzers = []*lint.Analyzer{
	detflow.Analyzer,
	noalloc.Analyzer,
	eventhandle.Analyzer,
	exhaustive.Analyzer,
	timeunits.Analyzer,
	bodystep.Analyzer,
	isoshare.Analyzer,
	kernelctx.Analyzer,
	waiverdrift.Analyzer,
}

// WaiverDirectives lists the waiver-class //rtseed: directives — the escape
// hatches whose population Stats reports and lint-budget.json caps. The
// contract annotations (noalloc, kernelctx) are deliberately absent: adding
// one of those strengthens checking, it does not excuse a violation.
var WaiverDirectives = []string{
	lint.DirAllocOK,
	lint.DirHandleOK,
	lint.DirNondeterministic,
	lint.DirPartialOK,
	lint.DirUnitsOK,
	lint.DirBodyStepOK,
	lint.DirSharedOK,
	lint.DirKernelCtxEntry,
}

// Stats is the waiver-directive census of a loaded tree: how many of each
// waiver-class //rtseed: directive the source carries. Every name in
// WaiverDirectives is present (zero-valued when absent) so the JSON shape is
// stable across runs and budget files diff cleanly.
type Stats struct {
	Directives map[string]int `json:"directives"`
}

// Run loads the packages matching patterns (relative to dir) and applies the
// whole suite: per-package analyzers to every package in their scope, module
// analyzers once over the full loaded set. Findings come back sorted by
// position, with malformed-directive problems included.
func Run(dir string, patterns []string) ([]lint.Diagnostic, error) {
	diags, _, err := RunWithStats(dir, patterns)
	return diags, err
}

// RunWithStats is Run plus the waiver-directive census of the loaded
// packages, taken from the same load so the counts describe exactly the tree
// the findings do.
func RunWithStats(dir string, patterns []string) ([]lint.Diagnostic, Stats, error) {
	stats := Stats{Directives: map[string]int{}}
	for _, name := range WaiverDirectives {
		stats.Directives[name] = 0
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(dir, patterns...)
	if err != nil {
		return nil, stats, err
	}
	for _, pkg := range pkgs {
		for _, d := range pkg.Directives.All() {
			if _, ok := stats.Directives[d.Name]; ok {
				stats.Directives[d.Name]++
			}
		}
	}
	session := lint.NewSession()
	var diags []lint.Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, pkg.Directives.Problems...)
		for _, a := range Analyzers {
			if a.RunModule != nil {
				continue
			}
			if a.AppliesTo != nil && !a.AppliesTo(pkg.ImportPath) {
				continue
			}
			found, err := lint.RunAnalyzer(a, pkg, session)
			if err != nil {
				return nil, stats, err
			}
			diags = append(diags, found...)
		}
	}
	for _, a := range Analyzers {
		if a.RunModule == nil {
			continue
		}
		found, err := lint.RunModuleAnalyzer(a, pkgs, session)
		if err != nil {
			return nil, stats, err
		}
		diags = append(diags, found...)
	}
	lint.SortDiagnostics(diags)
	return diags, stats, nil
}

// PrintStats writes the census as indented JSON, the same shape the budget
// file holds, so `rtseed-vet -stats ./... > lint-budget.json` regenerates the
// budget by hand when needed.
func PrintStats(w io.Writer, s Stats) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	return enc.Encode(s)
}

// Print writes findings to w — one go-vet-style file:line:col line each, or
// a JSON array ({analyzer, file, line, col, message}) with -json.
func Print(w io.Writer, diags []lint.Diagnostic, asJSON bool) error {
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "\t")
		if diags == nil {
			diags = []lint.Diagnostic{} // emit [] rather than null
		}
		return enc.Encode(diags)
	}
	for _, d := range diags {
		fmt.Fprintln(w, d)
	}
	return nil
}
