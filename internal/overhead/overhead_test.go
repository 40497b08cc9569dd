package overhead

import (
	"testing"
	"time"

	"rtseed/internal/assign"
	"rtseed/internal/machine"
)

// testJobs keeps the suite fast; means are stable well below the paper's
// 100 jobs.
const testJobs = 10

func run(t *testing.T, load machine.Load, pol assign.Policy, np int) *Measurement {
	t.Helper()
	m, err := Run(Config{Load: load, Policy: pol, NumParts: np, Jobs: testJobs})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunProducesAllSamples(t *testing.T) {
	m := run(t, machine.NoLoad, assign.OneByOne, 4)
	for _, k := range Kinds() {
		if len(m.Samples[k]) != testJobs {
			t.Fatalf("%v: %d samples, want %d", k, len(m.Samples[k]), testJobs)
		}
		if m.Mean(k) <= 0 {
			t.Fatalf("%v: non-positive mean %v", k, m.Mean(k))
		}
		if m.Max(k) < m.Mean(k) {
			t.Fatalf("%v: max below mean", k)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Load: machine.Load(0), Policy: assign.OneByOne, NumParts: 4}); err == nil {
		t.Fatal("invalid load accepted")
	}
	if _, err := Run(Config{Load: machine.NoLoad, Policy: assign.Policy(0), NumParts: 4}); err == nil {
		t.Fatal("invalid policy accepted")
	}
	if _, err := Run(Config{Load: machine.NoLoad, Policy: assign.OneByOne, NumParts: 0}); err == nil {
		t.Fatal("np=0 accepted")
	}
	if _, err := Run(Config{Load: machine.NoLoad, Policy: assign.OneByOne, NumParts: 229}); err == nil {
		t.Fatal("np beyond topology accepted")
	}
}

func TestKindMetadata(t *testing.T) {
	figs := map[Kind]int{DeltaM: 10, DeltaS: 11, DeltaB: 12, DeltaE: 13}
	for k, fig := range figs {
		if k.Figure() != fig {
			t.Errorf("%v: figure %d, want %d", k, k.Figure(), fig)
		}
		if k.String() == "unknown-overhead" {
			t.Errorf("kind %d missing label", k)
		}
	}
	if Kind(0).Figure() != 0 {
		t.Error("zero kind should map to no figure")
	}
}

func TestNumPartsSweepMatchesPaper(t *testing.T) {
	want := []int{4, 8, 16, 32, 57, 114, 171, 228}
	got := NumPartsSweep()
	if len(got) != len(want) {
		t.Fatalf("sweep %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sweep %v, want %v", got, want)
		}
	}
}

// Fig. 10: Δm is approximately constant in np and ordered
// CPU-Memory load > CPU load > No load.
func TestFig10BeginMandatoryShape(t *testing.T) {
	means := map[machine.Load][]time.Duration{}
	for _, load := range machine.Loads() {
		for _, np := range []int{4, 57} {
			means[load] = append(means[load], run(t, load, assign.OneByOne, np).Mean(DeltaM))
		}
	}
	for load, ms := range means {
		lo, hi := ms[0], ms[0]
		for _, v := range ms {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if float64(hi) > 1.5*float64(lo) {
			t.Errorf("%v: Δm not approximately constant: %v", load, ms)
		}
	}
	if !(means[machine.CPUMemoryLoad][0] > means[machine.CPULoad][0] &&
		means[machine.CPULoad][0] > means[machine.NoLoad][0]) {
		t.Errorf("Δm load ordering violated: mem=%v cpu=%v none=%v",
			means[machine.CPUMemoryLoad][0], means[machine.CPULoad][0], means[machine.NoLoad][0])
	}
	// Magnitude: tens to hundreds of microseconds, as in the paper.
	if m := means[machine.CPUMemoryLoad][0]; m < 50*time.Microsecond || m > time.Millisecond {
		t.Errorf("Δm magnitude %v outside the paper's order of magnitude", m)
	}
}

// Fig. 11: Δs grows with np under no load, with a sharp rise at 228; under
// background load it is approximately constant in np.
func TestFig11SwitchShape(t *testing.T) {
	var noLoad []time.Duration
	nps := []int{4, 57, 228}
	for _, np := range nps {
		noLoad = append(noLoad, run(t, machine.NoLoad, assign.OneByOne, np).Mean(DeltaS))
	}
	if !(noLoad[0] < noLoad[1] && noLoad[1] < noLoad[2]) {
		t.Errorf("no-load Δs should grow with np: %v", noLoad)
	}
	// The rise from 57 to 228 must dominate the rise from 4 to 57
	// (Fig. 11a's dramatic increase at 228).
	if noLoad[2]-noLoad[1] <= noLoad[1]-noLoad[0] {
		t.Errorf("no-load Δs should rise sharply near 228: %v", noLoad)
	}
	for _, load := range []machine.Load{machine.CPULoad, machine.CPUMemoryLoad} {
		var ms []time.Duration
		for _, np := range nps {
			ms = append(ms, run(t, load, assign.OneByOne, np).Mean(DeltaS))
		}
		lo, hi := ms[0], ms[0]
		for _, v := range ms {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if float64(hi) > 2.2*float64(lo) {
			t.Errorf("%v: Δs should be approximately constant, got %v", load, ms)
		}
	}
}

// Fig. 12: Δb is linear in np (O(np) cond_signal calls) and the CPU load
// hurts it more than the CPU-Memory load (branch-unit contention).
func TestFig12BeginOptionalShape(t *testing.T) {
	for _, load := range machine.Loads() {
		d57 := run(t, load, assign.OneByOne, 57).Mean(DeltaB)
		d228 := run(t, load, assign.OneByOne, 228).Mean(DeltaB)
		// Roughly linear in np (228/57 = 4); the slope flattens a little
		// at high np because optional threads displace background load
		// from the SMT siblings.
		ratio := float64(d228) / float64(d57)
		if ratio < 2.2 || ratio > 5.5 {
			t.Errorf("%v: Δb(228)/Δb(57) = %.2f, want ~3-5 (linear in np)", load, ratio)
		}
	}
	cpu := run(t, machine.CPULoad, assign.OneByOne, 228).Mean(DeltaB)
	mem := run(t, machine.CPUMemoryLoad, assign.OneByOne, 228).Mean(DeltaB)
	none := run(t, machine.NoLoad, assign.OneByOne, 228).Mean(DeltaB)
	if !(cpu > mem && mem > none) {
		t.Errorf("Δb ordering: cpu=%v mem=%v none=%v, want cpu > mem > none", cpu, mem, none)
	}
	// Magnitude: milliseconds at np=228, as in the paper.
	if cpu < 2*time.Millisecond || cpu > 60*time.Millisecond {
		t.Errorf("Δb magnitude %v outside the paper's order of magnitude", cpu)
	}
}

// Fig. 13: Δe is linear in np, the largest of all overheads, ordered
// CPU-Memory > CPU under load, and under load One-by-One is the most
// expensive policy while All-by-All is the cheapest.
func TestFig13EndOptionalShape(t *testing.T) {
	for _, load := range machine.Loads() {
		d57 := run(t, load, assign.OneByOne, 57).Mean(DeltaE)
		d228 := run(t, load, assign.OneByOne, 228).Mean(DeltaE)
		ratio := float64(d228) / float64(d57)
		if ratio < 2.5 || ratio > 6 {
			t.Errorf("%v: Δe(228)/Δe(57) = %.2f, want ~3-4 (linear in np)", load, ratio)
		}
	}
	cpu := run(t, machine.CPULoad, assign.OneByOne, 228)
	mem := run(t, machine.CPUMemoryLoad, assign.OneByOne, 228)
	if mem.Mean(DeltaE) <= cpu.Mean(DeltaE) {
		t.Errorf("Δe: CPU-Memory load (%v) should exceed CPU load (%v)",
			mem.Mean(DeltaE), cpu.Mean(DeltaE))
	}
	// Δe is the largest overhead (paper: "the overhead of ending the
	// parallel optional parts is the largest of all types of overhead").
	for _, k := range []Kind{DeltaM, DeltaS, DeltaB} {
		if mem.Mean(DeltaE) <= mem.Mean(k) {
			t.Errorf("Δe (%v) should exceed %v (%v)", mem.Mean(DeltaE), k, mem.Mean(k))
		}
	}
	// Policy ordering under load at an np where layouts differ.
	for _, load := range []machine.Load{machine.CPULoad, machine.CPUMemoryLoad} {
		one := run(t, load, assign.OneByOne, 57).Mean(DeltaE)
		two := run(t, load, assign.TwoByTwo, 57).Mean(DeltaE)
		all := run(t, load, assign.AllByAll, 57).Mean(DeltaE)
		if !(one > two && two > all) {
			t.Errorf("%v: Δe policy ordering one=%v two=%v all=%v, want one > two > all",
				load, one, two, all)
		}
	}
	// Under no load the policies are approximately the same.
	one := run(t, machine.NoLoad, assign.OneByOne, 57).Mean(DeltaE)
	all := run(t, machine.NoLoad, assign.AllByAll, 57).Mean(DeltaE)
	lo, hi := one, all
	if lo > hi {
		lo, hi = hi, lo
	}
	if float64(hi) > 1.4*float64(lo) {
		t.Errorf("no-load Δe policies should be close: one=%v all=%v", one, all)
	}
	// Magnitude: tens of milliseconds at np=228, as in the paper.
	if d := mem.Mean(DeltaE); d < 10*time.Millisecond || d > 200*time.Millisecond {
		t.Errorf("Δe magnitude %v outside the paper's order of magnitude", d)
	}
}

// Even with every optional part overrunning at every job, the wind-up part
// always completes by the deadline: the semi-fixed-priority guarantee under
// the worst-case overhead conditions of §V-A.
func TestNoDeadlineMissesUnderWorstCase(t *testing.T) {
	for _, load := range machine.Loads() {
		m := run(t, load, assign.OneByOne, 228)
		// Δm spilling past one period would show up as a release overhead
		// of milliseconds.
		if m.Max(DeltaM) > 10*time.Millisecond {
			t.Errorf("%v: Δm max %v suggests the previous job overran its period", load, m.Max(DeltaM))
		}
	}
}

func TestSweepLoadStructure(t *testing.T) {
	figs, err := SweepLoad(SweepConfig{
		NumParts: []int{4, 16},
		Jobs:     3,
	}, machine.NoLoad)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 {
		t.Fatalf("%d figures, want 4", len(figs))
	}
	for _, f := range figs {
		if len(f.Series) != 3 {
			t.Fatalf("fig %v: %d series, want 3 policies", f.Kind, len(f.Series))
		}
		for _, s := range f.Series {
			if len(s.Points) != 2 {
				t.Fatalf("fig %v %v: %d points, want 2", f.Kind, s.Policy, len(s.Points))
			}
			if s.MeanOver() <= 0 {
				t.Fatalf("fig %v %v: non-positive mean", f.Kind, s.Policy)
			}
		}
	}
	if ByKindLoad(figs, DeltaE, machine.NoLoad) == nil {
		t.Fatal("ByKindLoad lookup failed")
	}
	if ByKindLoad(figs, DeltaE, machine.CPULoad) != nil {
		t.Fatal("ByKindLoad found a figure for an unswept load")
	}
	if figs[0].SeriesFor(assign.OneByOne) == nil {
		t.Fatal("SeriesFor lookup failed")
	}
}

// Determinism: same seed, same measurements.
func TestMeasurementDeterministic(t *testing.T) {
	a := run(t, machine.CPUMemoryLoad, assign.TwoByTwo, 16)
	b := run(t, machine.CPUMemoryLoad, assign.TwoByTwo, 16)
	for _, k := range Kinds() {
		if a.Mean(k) != b.Mean(k) {
			t.Fatalf("%v: nondeterministic means %v vs %v", k, a.Mean(k), b.Mean(k))
		}
	}
}
