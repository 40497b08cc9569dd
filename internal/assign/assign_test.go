package assign

import (
	"strings"
	"testing"
	"testing/quick"

	"rtseed/internal/machine"
)

var phi = machine.XeonPhi3120A()

// Fig. 8 of the paper: exact core histograms for 171 parallel optional parts
// on the Xeon Phi 3120A (57 cores x 4 hardware threads).
func TestFig8OneByOne171(t *testing.T) {
	hws, err := HWThreads(phi, OneByOne, 171)
	if err != nil {
		t.Fatal(err)
	}
	hist := CoreHistogram(phi, hws)
	// "three hardware threads are assigned to C0-C56 (all cores)"
	for c, n := range hist {
		if n != 3 {
			t.Fatalf("core %d has %d parts, want 3", c, n)
		}
	}
}

func TestFig8TwoByTwo171(t *testing.T) {
	hws, err := HWThreads(phi, TwoByTwo, 171)
	if err != nil {
		t.Fatal(err)
	}
	hist := CoreHistogram(phi, hws)
	// "four hardware threads are assigned to C0-C27, three hardware threads
	// are assigned to C28, and two hardware threads are assigned to
	// C29-C56"
	for c := 0; c <= 27; c++ {
		if hist[c] != 4 {
			t.Fatalf("core %d has %d, want 4", c, hist[c])
		}
	}
	if hist[28] != 3 {
		t.Fatalf("core 28 has %d, want 3", hist[28])
	}
	for c := 29; c <= 56; c++ {
		if hist[c] != 2 {
			t.Fatalf("core %d has %d, want 2", c, hist[c])
		}
	}
}

func TestFig8AllByAll171(t *testing.T) {
	hws, err := HWThreads(phi, AllByAll, 171)
	if err != nil {
		t.Fatal(err)
	}
	hist := CoreHistogram(phi, hws)
	// "four hardware threads assigned to C0-C41, three hardware threads
	// assigned to C42, and no hardware threads assigned to C43-C56"
	for c := 0; c <= 41; c++ {
		if hist[c] != 4 {
			t.Fatalf("core %d has %d, want 4", c, hist[c])
		}
	}
	if hist[42] != 3 {
		t.Fatalf("core 42 has %d, want 3", hist[42])
	}
	for c := 43; c <= 56; c++ {
		if hist[c] != 0 {
			t.Fatalf("core %d has %d, want 0", c, hist[c])
		}
	}
}

// The first parallel optional part must run on the hardware thread of the
// mandatory thread (hardware thread 0).
func TestFirstPartOnHWThread0(t *testing.T) {
	for _, p := range Policies() {
		for _, np := range []int{1, 4, 57, 228} {
			hws, err := HWThreads(phi, p, np)
			if err != nil {
				t.Fatal(err)
			}
			if hws[0] != 0 {
				t.Fatalf("%v np=%d: first part on %d, want 0", p, np, hws[0])
			}
		}
	}
}

func TestDistinctCoresOrdering(t *testing.T) {
	// One by One spreads over the most cores; All by All over the fewest.
	for _, np := range []int{8, 16, 32, 57, 114} {
		one, _ := HWThreads(phi, OneByOne, np)
		two, _ := HWThreads(phi, TwoByTwo, np)
		all, _ := HWThreads(phi, AllByAll, np)
		o, w, a := DistinctCores(phi, one), DistinctCores(phi, two), DistinctCores(phi, all)
		if !(o >= w && w >= a) {
			t.Fatalf("np=%d: distinct cores one=%d two=%d all=%d; want one>=two>=all", np, o, w, a)
		}
		if o <= a {
			t.Fatalf("np=%d: one-by-one (%d) should use strictly more cores than all-by-all (%d)", np, o, a)
		}
	}
}

func TestFullMachine228(t *testing.T) {
	for _, p := range Policies() {
		hws, err := HWThreads(phi, p, 228)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[machine.HWThread]bool, 228)
		for _, h := range hws {
			if seen[h] {
				t.Fatalf("%v: duplicate hw thread %d", p, h)
			}
			seen[h] = true
		}
		if len(seen) != 228 {
			t.Fatalf("%v: %d distinct threads, want 228", p, len(seen))
		}
	}
}

func TestErrors(t *testing.T) {
	if _, err := HWThreads(phi, OneByOne, 229); err == nil {
		t.Fatal("np beyond topology accepted")
	}
	if _, err := HWThreads(phi, OneByOne, -1); err == nil {
		t.Fatal("negative np accepted")
	}
	if _, err := HWThreads(phi, Policy(0), 4); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := HWThreads(machine.Topology{}, OneByOne, 0); err == nil {
		t.Fatal("invalid topology accepted")
	}
}

func TestPolicyStrings(t *testing.T) {
	if OneByOne.String() != "One by One" || TwoByTwo.String() != "Two by Two" || AllByAll.String() != "All by All" {
		t.Fatal("policy labels must match the paper")
	}
	if Policy(0).Valid() {
		t.Fatal("zero policy should be invalid")
	}
}

func TestParsePolicy(t *testing.T) {
	names := []struct {
		name string
		want Policy
	}{{"one", OneByOne}, {"two", TwoByTwo}, {"all", AllByAll}}
	if len(names) != len(Policies()) {
		t.Fatalf("%d names for %d policies", len(names), len(Policies()))
	}
	for _, c := range names {
		got, err := ParsePolicy(c.name)
		if err != nil || got != c.want || policyNames[got] != c.name {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "four", "ONE", "One by One"} {
		if _, err := ParsePolicy(bad); err == nil || !strings.Contains(err.Error(), "want one, two, all") {
			t.Errorf("ParsePolicy(%q) error = %v, want one naming the policies", bad, err)
		}
	}
}

// Properties over arbitrary topologies and part counts: assignments have the
// requested length, no duplicates, and stay within the topology.
func TestPropertyAssignmentsWellFormed(t *testing.T) {
	f := func(cores, tpc uint8, npRaw uint16, pRaw uint8) bool {
		topo := machine.Topology{
			Cores:          int(cores%16) + 1,
			ThreadsPerCore: int(tpc%4) + 1,
		}
		p := Policies()[int(pRaw)%3]
		np := int(npRaw) % (topo.NumHWThreads() + 1)
		hws, err := HWThreads(topo, p, np)
		if err != nil {
			return false
		}
		if len(hws) != np {
			return false
		}
		seen := make(map[machine.HWThread]bool, np)
		for _, h := range hws {
			if !topo.Contains(h) || seen[h] {
				return false
			}
			seen[h] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: on a single-SMT-slot topology, all three policies coincide.
func TestPropertyPoliciesCoincideWithoutSMT(t *testing.T) {
	topo := machine.Topology{Cores: 8, ThreadsPerCore: 1}
	for np := 0; np <= 8; np++ {
		one, _ := HWThreads(topo, OneByOne, np)
		all, _ := HWThreads(topo, AllByAll, np)
		if len(one) != len(all) {
			t.Fatal("length mismatch")
		}
		for i := range one {
			if one[i] != all[i] {
				t.Fatalf("np=%d: policies diverge without SMT", np)
			}
		}
	}
}

func TestHWThreadsFromRotation(t *testing.T) {
	// Rotating to core 5 puts part 0 on (core 5, slot 0) and shifts the
	// whole layout by five cores, wrapping at the end.
	hws, err := HWThreadsFrom(phi, OneByOne, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	if hws[0] != phi.HWThreadOf(5, 0) {
		t.Fatalf("first part on %d, want core 5 slot 0", hws[0])
	}
	// 60 parts One-by-One: 57 on slot 0 (all cores), 3 on slot 1 of cores
	// 5,6,7.
	hist := CoreHistogram(phi, hws)
	for c, n := range hist {
		want := 1
		if c >= 5 && c <= 7 {
			want = 2
		}
		if n != want {
			t.Fatalf("core %d has %d parts, want %d", c, n, want)
		}
	}
	// Wrap-around: rotation never leaves the topology.
	for _, h := range hws {
		if !phi.Contains(h) {
			t.Fatalf("hw thread %d outside topology", h)
		}
	}
	if _, err := HWThreadsFrom(phi, OneByOne, 4, -1); err == nil {
		t.Fatal("negative first core accepted")
	}
	if _, err := HWThreadsFrom(phi, OneByOne, 4, 57); err == nil {
		t.Fatal("out-of-range first core accepted")
	}
}
