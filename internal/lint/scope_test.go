package lint

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSimScopeCoversInternalPackages asserts the scope table is total: every
// package directory under internal/ is either in SimScopePackages or in
// SimScopeExemptions with a written reason. A new internal package must pick
// a side before it builds green.
func TestSimScopeCoversInternalPackages(t *testing.T) {
	exempt := map[string]string{}
	for _, e := range SimScopeExemptions {
		if e.Reason == "" {
			t.Errorf("exemption for internal/%s carries no reason; exempting is a reviewed decision", e.Pkg)
		}
		if _, dup := exempt[e.Pkg]; dup {
			t.Errorf("internal/%s is exempted twice", e.Pkg)
		}
		exempt[e.Pkg] = e.Reason
	}

	entries, err := os.ReadDir("..")
	if err != nil {
		t.Fatalf("reading internal/: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		seen[name] = true
		inScope := InSimScope("rtseed/internal/" + name)
		_, isExempt := exempt[name]
		switch {
		case inScope && isExempt:
			t.Errorf("internal/%s is both in SimScopePackages and exempted; pick one", name)
		case !inScope && !isExempt:
			t.Errorf("internal/%s is neither in SimScopePackages nor in SimScopeExemptions; new packages must not silently dodge the determinism analyzers", name)
		}
	}
	for _, name := range SimScopePackages {
		if !seen[name] {
			t.Errorf("SimScopePackages names internal/%s, which does not exist", name)
		}
	}
	for name := range exempt {
		if !seen[name] {
			t.Errorf("SimScopeExemptions names internal/%s, which does not exist", name)
		}
	}
}

// TestSimScopeExemptRTNotImported keeps the rt exemption honest: internal/rt
// runs on the host clock and is outside the contract, so nothing inside the
// scope may import it — otherwise the exemption would leak wall-clock
// behavior into packages the analyzers certify as reproducible.
func TestSimScopeExemptRTNotImported(t *testing.T) {
	const banned = "rtseed/internal/rt"
	fset := token.NewFileSet()
	for _, name := range SimScopePackages {
		root := filepath.Join("..", name)
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if p == banned || strings.HasPrefix(p, banned+"/") {
					t.Errorf("%s imports %s; in-scope packages must not depend on the host-clock runtime", path, p)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("walking internal/%s: %v", name, err)
		}
	}
}

// TestInSimScope pins the scope predicate on sample import paths: whole
// path components only, so a name that merely starts with a scoped
// package's name stays out.
func TestInSimScope(t *testing.T) {
	for path, want := range map[string]bool{
		"rtseed/internal/engine":      true,
		"rtseed/internal/kernel":      true,
		"rtseed/internal/sweep":       true,
		"rtseed/internal/trace":       true,
		"rtseed/internal/workload":    true,
		"rtseed/internal/report":      true,
		"rtseed/internal/lint":        false,
		"rtseed/internal/trading":     true,
		"rtseed/internal/rt":          false, // host-clock runner: exempt by design, see SimScopeExemptions
		"rtseed/cmd/rtseed-overhead":  false,
		"rtseed/internal/engineering": false, // prefix of a scoped name must not match
	} {
		if got := InSimScope(path); got != want {
			t.Errorf("InSimScope(%q) = %v, want %v", path, got, want)
		}
	}
}
