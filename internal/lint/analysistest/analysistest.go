// Package analysistest runs a lint.Analyzer over a fixture directory and
// checks its findings against `// want "regexp"` expectations, mirroring
// golang.org/x/tools/go/analysis/analysistest on the standard library only.
//
// Fixtures live under internal/lint/testdata — a directory name the go tool
// ignores, so fixture files are compiled solely by this harness and never by
// `go build ./...` or rtseed-vet itself. Each flagged line carries a
// trailing comment
//
//	code() // want `regexp` `another`
//
// with one backquoted (or double-quoted) regexp per expected finding on
// that line. Every reported diagnostic must match an expectation on its
// line and every expectation must be matched by at least one diagnostic.
package analysistest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"rtseed/internal/lint"
)

// importerPatterns are the package patterns pre-loaded for fixture imports:
// the whole module plus the standard-library packages fixtures exercise.
var importerPatterns = []string{
	"./...", "fmt", "os", "time", "sort", "strings",
	"math/rand", "math/rand/v2", "slices", "context",
}

var wantRE = regexp.MustCompile("//\\s*want\\s+(.*)$")

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run applies a to the fixture package in dir (relative to the caller's
// working directory) and reports mismatches against its want comments. The
// prior analyzers, if any, run first over the same package in the same
// lint.Session with their findings discarded, the way the suite driver runs
// the rest of the suite before waiverdrift.
func Run(t *testing.T, a *lint.Analyzer, dir string, prior ...*lint.Analyzer) {
	t.Helper()
	pkg := Load(t, dir)
	session := lint.NewSession()
	for _, p := range prior {
		if _, err := lint.RunAnalyzer(p, pkg, session); err != nil {
			t.Fatalf("running %s: %v", p.Name, err)
		}
	}
	diags, err := lint.RunAnalyzer(a, pkg, session)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	checkExpectations(t, pkg.Fset, pkg.Syntax, diags)
}

// Load parses and type-checks the fixture package in dir (relative to the
// caller's working directory) as rtseed/fixture/<base name of dir>, failing
// the test on malformed directives.
func Load(t *testing.T, dir string) *lint.Package {
	t.Helper()
	moduleDir := findModuleRoot(t, dir)
	fset := token.NewFileSet()
	imp, err := lint.NewImporter(fset, moduleDir, importerPatterns...)
	if err != nil {
		t.Fatalf("building importer: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	importPath := "rtseed/fixture/" + filepath.Base(dir)
	pkg, err := lint.NewPackage(fset, importPath, dir, files, imp)
	if err != nil {
		t.Fatalf("typechecking fixture: %v", err)
	}
	for _, p := range pkg.Directives.Problems {
		t.Errorf("malformed directive: %s", p)
	}
	return pkg
}

// WantLines returns the position of every want comment in pkg: the lines
// on which the fixture expects findings.
func WantLines(t *testing.T, pkg *lint.Package) []token.Position {
	t.Helper()
	var lines []token.Position
	for _, w := range collectWants(t, pkg.Fset, pkg.Syntax) {
		if n := len(lines); n == 0 || lines[n-1].Filename != w.file || lines[n-1].Line != w.line {
			lines = append(lines, token.Position{Filename: w.file, Line: w.line})
		}
	}
	return lines
}

func checkExpectations(t *testing.T, fset *token.FileSet, files []*ast.File, diags []lint.Diagnostic) {
	t.Helper()
	wants := collectWants(t, fset, files)
	for i := range diags {
		d := &diags[i]
		matched := false
		for _, w := range wants {
			if w.file == d.File && w.line == d.Line && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected a finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, pat := range splitPatterns(m[1]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// splitPatterns extracts the backquoted or double-quoted patterns from the
// tail of a want comment.
func splitPatterns(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		quote := s[0]
		if quote != '`' && quote != '"' {
			break
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			break
		}
		out = append(out, s[1:1+end])
		s = strings.TrimSpace(s[end+2:])
	}
	return out
}

func findModuleRoot(t *testing.T, dir string) string {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	for d := abs; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		if filepath.Dir(d) == d {
			t.Fatalf("no go.mod above %s", abs)
			return ""
		}
	}
}
