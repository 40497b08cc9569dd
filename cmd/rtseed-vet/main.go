// Command rtseed-vet runs the repository's nine invariant analyzers —
// detflow, noalloc, eventhandle, exhaustive, timeunits, bodystep, isoshare,
// kernelctx, and waiverdrift — over the module, the way go vet runs its
// passes. Each analyzer runs once per invocation.
//
// Usage:
//
//	rtseed-vet [-json] [-sarif] [-stats] [-budget file] [packages]
//
// Packages default to ./... relative to the working directory, which must be
// inside the module. The exit status is 0 when the tree is clean, 1 when any
// analyzer reported findings, and 2 on a load or internal error. With -json
// the findings are emitted as a JSON array ({analyzer, file, line, col,
// message}) for CI annotation; with -sarif they are emitted as a SARIF
// 2.1.0 log for GitHub code scanning upload; the human format matches go
// vet's file:line:col prefix, so editors hyperlink it as-is.
//
// With -stats, stdout carries the waiver-directive census instead — a JSON
// object counting every waiver-class //rtseed: directive in the tree
// ({"directives": {"alloc-ok": 0, ...}}); findings still go to stderr and
// still fail the run. With -budget, the census is compared against the named
// budget file (same JSON shape, committed as lint-budget.json): any count
// above its budget fails the run, and any count below it is accepted
// automatically by rewriting the file, so the waiver population only ever
// ratchets down. Both output forms are published in schema.json.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"rtseed/internal/lint/suite"
)

func main() {
	os.Exit(vetMain(".", os.Args[1:], os.Stdout, os.Stderr))
}

// vetMain is the whole CLI behind a testable seam: it runs the suite over
// patterns in dir and returns the process exit code (0 clean, 1 findings or
// budget violation, 2 usage/load/internal error).
func vetMain(dir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtseed-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of text")
	sarifOut := fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log for code scanning upload")
	statsOut := fs.Bool("stats", false, "emit the waiver-directive census as JSON on stdout (findings go to stderr)")
	budgetPath := fs.String("budget", "", "compare the census against this budget `file`; growth fails, lowering rewrites it")
	fs.Usage = func() { usage(fs, stderr) }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *sarifOut && (*jsonOut || *statsOut) {
		fmt.Fprintln(stderr, "rtseed-vet: -sarif cannot be combined with -json or -stats (stdout carries one document)")
		return 2
	}
	diags, stats, err := suite.RunWithStats(dir, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "rtseed-vet:", err)
		return 2
	}
	if *sarifOut {
		if err := suite.PrintSARIF(stdout, dir, diags); err != nil {
			fmt.Fprintln(stderr, "rtseed-vet:", err)
			return 2
		}
	} else if *statsOut {
		if err := suite.PrintStats(stdout, stats); err != nil {
			fmt.Fprintln(stderr, "rtseed-vet:", err)
			return 2
		}
		// Findings move to stderr so stdout stays pure census JSON for
		// redirection into a file or the budget.
		if err := suite.Print(stderr, diags, false); err != nil {
			fmt.Fprintln(stderr, "rtseed-vet:", err)
			return 2
		}
	} else if err := suite.Print(stdout, diags, *jsonOut); err != nil {
		fmt.Fprintln(stderr, "rtseed-vet:", err)
		return 2
	}
	code := 0
	if len(diags) > 0 {
		code = 1
	}
	if *budgetPath != "" {
		if c := checkBudget(dir, *budgetPath, stats, stderr); c > code {
			code = c
		}
	}
	return code
}

// checkBudget enforces the waiver ratchet: every census count at or below its
// budgeted value passes, any count above fails with the directive named, and
// a strictly lower census rewrites the budget file so the improvement sticks.
// The path is resolved relative to dir, matching the package patterns.
func checkBudget(dir, path string, stats suite.Stats, stderr io.Writer) int {
	if !filepath.IsAbs(path) {
		path = filepath.Join(dir, path)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "rtseed-vet:", err)
		return 2
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var budget suite.Stats
	if err := dec.Decode(&budget); err != nil {
		fmt.Fprintf(stderr, "rtseed-vet: %s: %v\n", path, err)
		return 2
	}
	grew, lowered := false, false
	for _, name := range suite.WaiverDirectives {
		have := stats.Directives[name]
		allowed, known := budget.Directives[name]
		switch {
		case have > allowed:
			grew = true
			if known {
				fmt.Fprintf(stderr, "rtseed-vet: waiver budget exceeded: %d //rtseed:%s directives, %s allows %d\n",
					have, name, path, allowed)
			} else {
				fmt.Fprintf(stderr, "rtseed-vet: waiver budget exceeded: %d //rtseed:%s directives, but %s has no entry for it\n",
					have, name, path)
			}
		case have < allowed:
			lowered = true
		case !known:
			// Zero count with no budget entry: fill the entry in.
			lowered = true
		}
	}
	for name := range budget.Directives {
		if _, ok := stats.Directives[name]; !ok {
			// A budget entry for a directive that no longer exists —
			// drop it on the next rewrite.
			lowered = true
		}
	}
	if grew {
		fmt.Fprintf(stderr, "rtseed-vet: remove the new waiver or justify raising %s in review\n", path)
		return 1
	}
	if lowered {
		var buf bytes.Buffer
		if err := suite.PrintStats(&buf, stats); err != nil {
			fmt.Fprintln(stderr, "rtseed-vet:", err)
			return 2
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			fmt.Fprintln(stderr, "rtseed-vet:", err)
			return 2
		}
		fmt.Fprintf(stderr, "rtseed-vet: waiver budget lowered; regenerated %s\n", path)
	}
	return 0
}

func usage(fs *flag.FlagSet, w io.Writer) {
	fmt.Fprintf(w, "usage: rtseed-vet [-json] [-sarif] [-stats] [-budget file] [packages]\n\nAnalyzers:\n")
	for _, a := range suite.Analyzers {
		fmt.Fprintf(w, "  %-12s %s\n", a.Name, a.Doc)
	}
	fs.PrintDefaults()
}
