package machine

import "fmt"

// Load is the background load condition of the overhead experiments
// (paper §V-B): no background tasks, infinite CPU-bound loops on every
// hardware thread, or 512 KB (one L2's worth) read/write loops on every
// hardware thread that pollute the L1/L2 caches.
type Load int

const (
	// NoLoad runs no background tasks.
	NoLoad Load = iota + 1
	// CPULoad runs an infinite branch-heavy loop on every hardware thread.
	CPULoad
	// CPUMemoryLoad runs 512 KB read/write loops on every hardware thread,
	// sized to the Xeon Phi 3120A's per-core L2, so that real-time work
	// misses L1 and L2 and goes to memory.
	CPUMemoryLoad
)

// Loads lists the three load conditions in the order the paper plots them.
func Loads() []Load { return []Load{NoLoad, CPULoad, CPUMemoryLoad} }

// String implements fmt.Stringer with the paper's labels.
func (l Load) String() string {
	switch l {
	case NoLoad:
		return "No load"
	case CPULoad:
		return "CPU load"
	case CPUMemoryLoad:
		return "CPU-Memory load"
	default:
		return "unknown load"
	}
}

// Valid reports whether l is one of the three defined loads.
func (l Load) Valid() bool { return l >= NoLoad && l <= CPUMemoryLoad }

// loadNames are the loads' command-line names, indexed by Load.
var loadNames = [...]string{NoLoad: "none", CPULoad: "cpu", CPUMemoryLoad: "cpumem"}

// ParseLoad maps a command-line name (none, cpu, cpumem) to its Load.
func ParseLoad(s string) (Load, error) {
	for _, l := range Loads() {
		if loadNames[l] == s {
			return l, nil
		}
	}
	return 0, fmt.Errorf("unknown load %q (want none, cpu, cpumem)", s)
}
