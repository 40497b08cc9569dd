// Package assign implements the hardware-thread assignment policies for
// parallel optional parts evaluated in the paper (§V-A, Fig. 8): One by One,
// Two by Two, and All by All. Parallel optional parts are assigned to
// hardware threads offline, before execution, and do not migrate.
package assign

import (
	"fmt"

	"rtseed/internal/machine"
)

// Policy is an assignment policy for parallel optional parts.
type Policy int

const (
	// OneByOne assigns parts to one hardware thread on each core, round
	// robin over cores, then a second hardware thread on each core, and so
	// on: parts spread over as many distinct cores as possible.
	OneByOne Policy = iota + 1
	// TwoByTwo assigns parts two hardware threads per core at a time:
	// cores are filled to two SMT slots across all cores, then the
	// remaining slots two at a time.
	TwoByTwo
	// AllByAll fills every hardware thread of a core before moving to the
	// next core (four by four on the Xeon Phi 3120A): parts concentrate on
	// as few cores as possible.
	AllByAll
)

// Policies lists the three policies in the paper's order.
func Policies() []Policy { return []Policy{OneByOne, TwoByTwo, AllByAll} }

// String implements fmt.Stringer with the paper's labels.
func (p Policy) String() string {
	switch p {
	case OneByOne:
		return "One by One"
	case TwoByTwo:
		return "Two by Two"
	case AllByAll:
		return "All by All"
	default:
		return "unknown policy"
	}
}

// Valid reports whether p is a defined policy.
func (p Policy) Valid() bool { return p >= OneByOne && p <= AllByAll }

// policyNames are the policies' command-line names, indexed by Policy.
var policyNames = [...]string{OneByOne: "one", TwoByTwo: "two", AllByAll: "all"}

// ParsePolicy maps a command-line name (one, two, all) to its Policy.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range Policies() {
		if policyNames[p] == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q (want one, two, all)", s)
}

// HWThreads returns the hardware threads for np parallel optional parts
// under policy p on topology topo, in part order (part k runs on element k).
// The first part is always placed on hardware thread 0 — the paper requires
// the first parallel optional thread to execute on the processor that
// executes the mandatory thread.
//
// It returns an error if np exceeds the number of hardware threads or the
// policy is unknown.
func HWThreads(topo machine.Topology, p Policy, np int) ([]machine.HWThread, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if np < 0 || np > topo.NumHWThreads() {
		return nil, fmt.Errorf("assign: np=%d outside [0,%d]", np, topo.NumHWThreads())
	}
	var width int
	switch p {
	case OneByOne:
		width = 1
	case TwoByTwo:
		width = 2
	case AllByAll:
		width = topo.ThreadsPerCore
	default:
		return nil, fmt.Errorf("assign: unknown policy %d", p)
	}
	return byWidth(topo, width, np), nil
}

// byWidth generates the assignment for a policy that claims `width` SMT
// slots per core per pass: slots (pass*width .. pass*width+width-1) of core
// 0, then of core 1, ... then the next pass.
func byWidth(topo machine.Topology, width, np int) []machine.HWThread {
	out := make([]machine.HWThread, 0, np)
	for pass := 0; len(out) < np; pass++ {
		base := pass * width
		if base >= topo.ThreadsPerCore {
			break
		}
		for core := 0; core < topo.Cores && len(out) < np; core++ {
			for s := base; s < base+width && s < topo.ThreadsPerCore && len(out) < np; s++ {
				out = append(out, topo.HWThreadOf(core, s))
			}
		}
	}
	return out
}

// HWThreadsFrom is HWThreads with the assignment rotated so that it starts
// at firstCore's SMT slot 0: part 0 lands on hardware thread
// (firstCore, 0). A partitioned task whose mandatory thread is pinned to
// core c uses firstCore = c, preserving the paper's rule that the first
// parallel optional part shares the mandatory thread's processor.
func HWThreadsFrom(topo machine.Topology, p Policy, np, firstCore int) ([]machine.HWThread, error) {
	if firstCore < 0 || firstCore >= topo.Cores {
		return nil, fmt.Errorf("assign: first core %d outside [0,%d)", firstCore, topo.Cores)
	}
	base, err := HWThreads(topo, p, np)
	if err != nil {
		return nil, err
	}
	out := make([]machine.HWThread, len(base))
	for i, h := range base {
		core := (topo.CoreOf(h) + firstCore) % topo.Cores
		out[i] = topo.HWThreadOf(core, topo.SiblingIndexOf(h))
	}
	return out, nil
}

// CoreHistogram returns, for an assignment, how many parts landed on each
// core. It is the shape Fig. 8 draws.
func CoreHistogram(topo machine.Topology, hws []machine.HWThread) []int {
	hist := make([]int, topo.Cores)
	for _, h := range hws {
		hist[topo.CoreOf(h)]++
	}
	return hist
}

// DistinctCores returns the number of cores used by an assignment. Under
// background load, more distinct cores means more optional parts sharing a
// core with background tasks — the mechanism behind the One-by-One policy's
// high ending overhead (paper Fig. 13, §V-B).
func DistinctCores(topo machine.Topology, hws []machine.HWThread) int {
	n := 0
	for _, c := range CoreHistogram(topo, hws) {
		if c > 0 {
			n++
		}
	}
	return n
}
