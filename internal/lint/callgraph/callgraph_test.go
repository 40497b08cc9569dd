package callgraph_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"rtseed/internal/lint"
	"rtseed/internal/lint/callgraph"
)

// mapImporter resolves the synthetic test packages by import path.
type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	if p, ok := m[path]; ok {
		return p, nil
	}
	return nil, nil
}

// load type-checks one in-memory source file into a lint.Package.
func load(t *testing.T, fset *token.FileSet, imp mapImporter, importPath, src string) *lint.Package {
	t.Helper()
	file, err := parser.ParseFile(fset, importPath+"/src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", importPath, err)
	}
	pkg, err := lint.NewPackage(fset, importPath, "", []*ast.File{file}, imp)
	if err != nil {
		t.Fatalf("typecheck %s: %v", importPath, err)
	}
	imp[importPath] = pkg.Types
	return pkg
}

const srcA = `package a

type Worker struct{ n int }

func (w *Worker) Step() { w.n++ }

func Helper() {}

type Stepper interface{ Step() }
`

const srcB = `package b

import "example/a"

func direct() { a.Helper() }

func spawn() { go loop() }

func loop() {
	defer cleanup()
	w := &a.Worker{}
	w.Step()
}

func cleanup() {}

func takeRef() func() { return a.Helper }

func callValue(f func()) { f() }

func viaInterface(s a.Stepper) { s.Step() }

func literals() {
	f := func() { a.Helper() }
	f()
	func() {}()
	go func() { cleanup() }()
}
`

type edgeKey struct {
	caller, callee string
	kind           callgraph.EdgeKind
}

func buildTestGraph(t *testing.T) *callgraph.Graph {
	t.Helper()
	fset := token.NewFileSet()
	imp := mapImporter{}
	pa := load(t, fset, imp, "example/a", srcA)
	pb := load(t, fset, imp, "example/b", srcB)
	return callgraph.Build([]*lint.Package{pa, pb})
}

func edgeSet(g *callgraph.Graph) map[edgeKey]bool {
	set := map[edgeKey]bool{}
	for _, n := range g.Nodes {
		for _, e := range n.Out {
			set[edgeKey{e.Caller.Name(), e.Callee.Name(), e.Kind}] = true
		}
	}
	return set
}

func TestBuildEdges(t *testing.T) {
	g := buildTestGraph(t)
	set := edgeSet(g)

	want := []edgeKey{
		// Direct calls, including cross-package and method calls.
		{"b.direct", "a.Helper", callgraph.Static},
		{"b.loop", "(*a.Worker).Step", callgraph.Static},
		// go and defer statements keep their own kinds.
		{"b.spawn", "b.loop", callgraph.Go},
		{"b.loop", "b.cleanup", callgraph.Defer},
		// Address taken without a call.
		{"b.takeRef", "a.Helper", callgraph.Ref},
		// Interface dispatch resolves conservatively to the implementation.
		{"b.viaInterface", "(*a.Worker).Step", callgraph.Interface},
		// Literals: assigned-then-called, immediately invoked, go-spawned.
		{"b.literals", "b.literals$1", callgraph.Dynamic},
		{"b.literals$1", "a.Helper", callgraph.Static},
		{"b.literals", "b.literals$2", callgraph.Static},
		{"b.literals", "b.literals$3", callgraph.Go},
		{"b.literals$3", "b.cleanup", callgraph.Static},
	}
	for _, k := range want {
		if !set[k] {
			t.Errorf("missing edge %s -%s-> %s", k.caller, k.kind, k.callee)
		}
	}

	// The func-value call site resolves by signature: callValue's f() must
	// reach the address-taken set, which includes a.Helper (returned as a
	// value by takeRef).
	if !set[edgeKey{"b.callValue", "a.Helper", callgraph.Dynamic}] {
		t.Errorf("missing dynamic edge b.callValue -> a.Helper")
	}
	// An immediately-invoked literal is NOT address-taken: no dynamic edge
	// may point at it.
	if set[edgeKey{"b.callValue", "b.literals$2", callgraph.Dynamic}] {
		t.Errorf("dynamic edge resolved to an immediately-invoked literal")
	}
}

// TestInterfaceEdgesAcrossPackages builds the graph with the real loader,
// which type-checks each package from source but resolves its imports from
// export data: core's *kernel.TCB is then a different type object from
// kernel's own. The kernel's one call into task bodies must still resolve to
// an implementation declared in another package. The in-memory fixtures
// above share one type universe and cannot show this.
func TestInterfaceEdgesAcrossPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles export data for the loaded packages")
	}
	pkgs, err := lint.Load("../../..", "./internal/kernel", "./internal/core")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	set := edgeSet(callgraph.Build(pkgs))
	for _, k := range []edgeKey{
		{"(*kernel.Kernel).resumeThread", "(kernel.StepFunc).Step", callgraph.Interface},
		{"(*kernel.Kernel).resumeThread", "(*core.mandBody).Step", callgraph.Interface},
		{"(*kernel.Kernel).resumeThread", "(*core.optBody).Step", callgraph.Interface},
	} {
		if !set[k] {
			t.Errorf("missing edge %s -%s-> %s", k.caller, k.kind, k.callee)
		}
	}
}

func TestGoSpawnedLiteral(t *testing.T) {
	g := buildTestGraph(t)
	for _, n := range g.Nodes {
		switch n.Name() {
		case "b.literals$3":
			if !n.GoSpawned {
				t.Errorf("%s: want GoSpawned", n.Name())
			}
		case "b.literals$1", "b.literals$2":
			if n.GoSpawned {
				t.Errorf("%s: unexpected GoSpawned", n.Name())
			}
		}
	}
}

func TestCallerPath(t *testing.T) {
	g := buildTestGraph(t)
	var cleanup *callgraph.Node
	for _, n := range g.Nodes {
		if n.Name() == "b.cleanup" {
			cleanup = n
		}
	}
	if cleanup == nil {
		t.Fatal("b.cleanup node not found")
	}
	path := g.CallerPath(cleanup)
	got := callgraph.FormatPath(path)
	// Shortest direct chain: spawn -go-> loop -defer-> cleanup (the literal
	// chain literals -> literals$3 -> cleanup is equally long; accept both).
	if got != "b.spawn → b.loop → b.cleanup" && got != "b.literals → b.literals$3 → b.cleanup" {
		t.Errorf("CallerPath(b.cleanup) = %q", got)
	}
	if path[len(path)-1] != cleanup {
		t.Errorf("path must end at the queried node")
	}
}

func TestNodeLookup(t *testing.T) {
	g := buildTestGraph(t)
	names := map[string]bool{}
	for _, n := range g.Nodes {
		names[n.Name()] = true
	}
	for _, want := range []string{
		"a.Helper", "(*a.Worker).Step", "b.direct", "b.spawn", "b.loop",
		"b.cleanup", "b.takeRef", "b.callValue", "b.viaInterface",
		"b.literals", "b.literals$1", "b.literals$2", "b.literals$3",
	} {
		if !names[want] {
			t.Errorf("missing node %q (have %s)", want, strings.Join(sortedNames(g), ", "))
		}
	}
}

func sortedNames(g *callgraph.Graph) []string {
	out := make([]string, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		out = append(out, n.Name())
	}
	return out
}
