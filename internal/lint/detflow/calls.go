package detflow

import (
	"go/ast"
	"go/types"
	"strings"

	"rtseed/internal/lint"
	"rtseed/internal/lint/summary"
)

// hostTimerFuncs are the package-level time functions that block on or arm
// the host's clock — side effects no dataflow can excuse. The value readers
// (Now, Since, Until) are taint sources instead: their results are only a
// problem when they reach a sink.
var hostTimerFuncs = map[string]bool{
	"Sleep": true, "After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// checkCalls applies the call-site rules to every call in the package,
// package-level initializers included: calls that are wrong wherever their
// values go.
func checkCalls(pass *lint.Pass) {
	pass.InspectFuncs(func(_ *ast.File, decl *ast.FuncDecl, n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			checkCall(pass, decl, call)
		}
		return true
	})
}

func checkCall(pass *lint.Pass, decl *ast.FuncDecl, call *ast.CallExpr) {
	fn := pass.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil { // methods (e.g. on a seeded *rand.Rand) are fine
		return
	}
	pkgPath, name := fn.Pkg().Path(), fn.Name()
	// Global rand draws and env reads are taint sources too: one table.
	kind, _, _ := summary.Source(pass.TypesInfo(), call)
	var msg string
	switch {
	case pkgPath == "time" && hostTimerFuncs[name]:
		msg = "blocks on the host clock; simulation code must use virtual engine.Time"
	case kind == kindRand:
		msg = "uses the global math/rand source; use a seeded engine.Rand (or rand.New) so runs reproduce"
	case kind == kindEnv:
		msg = "reads the process environment; branching on it breaks seed-reproducibility"
	case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && strings.HasPrefix(name, "New") && clockSeeded(pass, call):
		msg = "takes a wall-clock seed; every run draws a different population — thread an explicit seed instead"
	default:
		return
	}
	if pass.WaivedIn(decl, call.Pos(), lint.DirNondeterministic) {
		return
	}
	pass.Reportf(call.Pos(), "call to %s.%s %s", pkgPath, name, msg)
}

// clockSeeded reports whether any argument of a rand constructor call
// (rand.New, rand.NewSource, ...) syntactically contains a clock read —
// the rand.NewSource(time.Now().UnixNano()) idiom. The sampler itself is
// local and seeded, but the seed destroys reproducibility, so the
// constructor is the right place to flag it.
func clockSeeded(pass *lint.Pass, call *ast.CallExpr) bool {
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			if fn := pass.CalleeFunc(inner); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "time" && fn.Name() == "Now" {
				found = true
			}
			return !found
		})
	}
	return found
}
