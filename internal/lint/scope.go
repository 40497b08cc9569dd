package lint

// scope.go is the single source of truth for the simulation-determinism
// scope: the set of rtseed/internal packages whose non-test code must be a
// pure function of its inputs. The detflow, timeunits, and isoshare
// analyzers all consult InSimScope, so a package is either covered by all
// three or deliberately exempt — never covered by one and silently skipped
// by another. TestSimScopeCoversInternalPackages asserts that every
// directory under internal/ appears in exactly one of the two tables below,
// so a new package cannot dodge the analyzers by omission.

// SimScopePackages are the rtseed/internal packages under the determinism
// contract. cmd/ front-ends may touch the real world; these may not.
var SimScopePackages = []string{
	"engine", "kernel", "overhead", "analysis", "sweep", "sched",
	"task", "machine", "partition", "assign", "core", "trace",
	"cluster", "workload", "report", "trading",
}

// A ScopeExemption names an rtseed/internal package that is deliberately
// outside the determinism scope, with the reason on record.
type ScopeExemption struct {
	Pkg    string
	Reason string
}

// SimScopeExemptions lists every internal package the contract does not
// cover. Exempting a package is a reviewed decision, not a default: the
// scope test fails on any internal package missing from both tables, and
// TestSimScopeExemptRTNotImported keeps the rt exemption from leaking back
// into scope through an import.
var SimScopeExemptions = []ScopeExemption{
	{"rt", "executes on the host clock by design (the wall-clock runner); the reproducible counterpart is the simulated kernel, and no in-scope package may import rt"},
	{"lint", "the analysis tooling itself; it inspects the tree rather than simulating anything"},
	{"golden", "a test helper that reads and rewrites committed report digests; it simulates nothing"},
	{"prof", "wires -cpuprofile/-memprofile flags to runtime/pprof for the cmd/ binaries; host-file I/O is its purpose"},
}

// InSimScope reports whether the determinism contract applies to importPath.
func InSimScope(importPath string) bool {
	return IsInternalPkg(importPath, SimScopePackages...)
}
