package machine

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func newNoJitter(load Load) *Machine {
	model := DefaultCostModel()
	model.JitterFrac = 0
	return MustNew(XeonPhi3120A(), load, model, 1)
}

func TestXeonPhiTopology(t *testing.T) {
	topo := XeonPhi3120A()
	if topo.Cores != 57 || topo.ThreadsPerCore != 4 {
		t.Fatalf("topology %+v, want 57 cores x 4 threads", topo)
	}
	if topo.NumHWThreads() != 228 {
		t.Fatalf("hw threads %d, want 228", topo.NumHWThreads())
	}
}

func TestHWThreadNumberingCoreMajor(t *testing.T) {
	topo := XeonPhi3120A()
	// Hardware thread 0 is SMT slot 0 of core 0; thread 57 is slot 1 of
	// core 0; thread 56 is slot 0 of core 56.
	cases := []struct {
		h       HWThread
		core    int
		sibling int
	}{
		{0, 0, 0},
		{56, 56, 0},
		{57, 0, 1},
		{113, 56, 1},
		{114, 0, 2},
		{227, 56, 3},
	}
	for _, c := range cases {
		if got := topo.CoreOf(c.h); got != c.core {
			t.Errorf("CoreOf(%d) = %d, want %d", c.h, got, c.core)
		}
		if got := topo.SiblingIndexOf(c.h); got != c.sibling {
			t.Errorf("SiblingIndexOf(%d) = %d, want %d", c.h, got, c.sibling)
		}
		if got := topo.HWThreadOf(c.core, c.sibling); got != c.h {
			t.Errorf("HWThreadOf(%d,%d) = %d, want %d", c.core, c.sibling, got, c.h)
		}
	}
}

func TestSiblings(t *testing.T) {
	topo := XeonPhi3120A()
	sib := topo.SiblingsOf(0)
	want := []HWThread{0, 57, 114, 171}
	if len(sib) != len(want) {
		t.Fatalf("siblings %v, want %v", sib, want)
	}
	for i := range want {
		if sib[i] != want[i] {
			t.Fatalf("siblings %v, want %v", sib, want)
		}
	}
}

func TestTopologyValidate(t *testing.T) {
	if err := (Topology{Cores: 0, ThreadsPerCore: 4}).Validate(); err == nil {
		t.Fatal("zero cores should be invalid")
	}
	if err := (Topology{Cores: 4, ThreadsPerCore: 0}).Validate(); err == nil {
		t.Fatal("zero threads per core should be invalid")
	}
	if err := XeonPhi3120A().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadStrings(t *testing.T) {
	if NoLoad.String() != "No load" || CPULoad.String() != "CPU load" || CPUMemoryLoad.String() != "CPU-Memory load" {
		t.Fatal("load labels must match the paper")
	}
	if Load(0).Valid() || Load(99).Valid() {
		t.Fatal("invalid loads must not validate")
	}
}

func TestParseLoad(t *testing.T) {
	names := []struct {
		name string
		want Load
	}{{"none", NoLoad}, {"cpu", CPULoad}, {"cpumem", CPUMemoryLoad}}
	if len(names) != len(Loads()) {
		t.Fatalf("%d names for %d loads", len(names), len(Loads()))
	}
	for _, c := range names {
		got, err := ParseLoad(c.name)
		if err != nil || got != c.want || loadNames[got] != c.name {
			t.Errorf("ParseLoad(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "gpu", "CPU", "No load"} {
		if _, err := ParseLoad(bad); err == nil || !strings.Contains(err.Error(), "want none, cpu, cpumem") {
			t.Errorf("ParseLoad(%q) error = %v, want one naming the loads", bad, err)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Topology{}, NoLoad, DefaultCostModel(), 1); err == nil {
		t.Fatal("bad topology accepted")
	}
	if _, err := New(XeonPhi3120A(), Load(0), DefaultCostModel(), 1); err == nil {
		t.Fatal("bad load accepted")
	}
	if _, err := New(XeonPhi3120A(), NoLoad, CostModel{}, 1); err == nil {
		t.Fatal("empty cost model accepted")
	}
}

// The dispatch overhead (Δm's main component) must be ordered
// CPU-Memory load > CPU load > No load (paper Fig. 10).
func TestDispatchCostLoadOrdering(t *testing.T) {
	none := newNoJitter(NoLoad).Cost(OpDispatch, 0)
	cpu := newNoJitter(CPULoad).Cost(OpDispatch, 0)
	mem := newNoJitter(CPUMemoryLoad).Cost(OpDispatch, 0)
	if !(mem > cpu && cpu > none) {
		t.Fatalf("dispatch cost ordering: mem=%v cpu=%v none=%v", mem, cpu, none)
	}
}

// The cond_signal overhead (Δb's component) must be ordered
// CPU load > CPU-Memory load (branch-unit contention, paper Fig. 12).
func TestSignalCostBranchOrdering(t *testing.T) {
	cpu := newNoJitter(CPULoad).Cost(OpCondSignal, 0)
	mem := newNoJitter(CPUMemoryLoad).Cost(OpCondSignal, 0)
	none := newNoJitter(NoLoad).Cost(OpCondSignal, 0)
	if !(cpu > mem && mem > none) {
		t.Fatalf("signal cost ordering: cpu=%v mem=%v none=%v", cpu, mem, none)
	}
}

// Under no load, context-switch cost grows with the number of hardware
// threads running real-time work and rises sharply near saturation
// (paper Fig. 11a).
func TestSwitchCostTrafficGrowth(t *testing.T) {
	m := newNoJitter(NoLoad)
	// Mark `active` RT occupants on cores other than core 0, so the traffic
	// factor is isolated from core-0 SMT contention.
	costAt := func(active int) time.Duration {
		for h := 0; h < m.Topology().NumHWThreads(); h++ {
			m.SetOccupant(HWThread(h), OccupantIdle)
		}
		n := 0
		for h := 1; h < m.Topology().NumHWThreads() && n < active; h++ {
			if m.Topology().CoreOf(HWThread(h)) != 0 {
				m.SetOccupant(HWThread(h), OccupantRT)
				n++
			}
		}
		return m.Cost(OpContextSwitch, 0)
	}
	small := costAt(4)
	mid := costAt(114)
	big := costAt(220)
	if !(small < mid && mid < big) {
		t.Fatalf("no-load switch cost should grow: %v, %v, %v", small, mid, big)
	}
	// The near-saturation rise must be steeper than the initial rise.
	if big-mid <= mid-small {
		t.Fatalf("expected superlinear rise near saturation: %v, %v, %v", small, mid, big)
	}
}

// Under background load the context-switch cost must not depend on how many
// optional parts run (paper Fig. 11b,c).
func TestSwitchCostConstantUnderLoad(t *testing.T) {
	for _, load := range []Load{CPULoad, CPUMemoryLoad} {
		m := newNoJitter(load)
		before := m.Cost(OpContextSwitch, 0)
		for h := 1; h < 228; h++ {
			if m.Topology().CoreOf(HWThread(h)) != 0 {
				m.SetOccupant(HWThread(h), OccupantRT)
			}
		}
		after := m.Cost(OpContextSwitch, 0)
		if before != after {
			t.Fatalf("%v: switch cost changed with active RT: %v -> %v", load, before, after)
		}
	}
}

// SMT contention: under background load, an op on a hardware thread whose
// siblings still host the background load costs more than on one whose
// siblings have real-time threads bound (the Fig. 13 policy-ordering
// mechanism).
func TestSMTBackgroundContention(t *testing.T) {
	for _, load := range []Load{CPULoad, CPUMemoryLoad} {
		m := newNoJitter(load)
		alone := m.Cost(OpSigLongjmp, 5) // siblings all background
		for _, s := range m.Topology().SiblingsOf(5) {
			m.BindRT(s)
		}
		packed := m.Cost(OpSigLongjmp, 5) // siblings all RT-bound
		if packed >= alone {
			t.Fatalf("%v: RT siblings should contend less than background: packed=%v alone=%v", load, packed, alone)
		}
	}
}

// Under no load, sibling contention comes only from other RT threads and is
// mild.
func TestSMTNoLoadMild(t *testing.T) {
	m := newNoJitter(NoLoad)
	idle := m.Cost(OpSigLongjmp, 5)
	for _, s := range m.Topology().SiblingsOf(5) {
		m.BindRT(s)
	}
	packed := m.Cost(OpSigLongjmp, 5)
	if packed < idle {
		t.Fatalf("RT siblings should not reduce cost: packed=%v idle=%v", packed, idle)
	}
	if float64(packed) > 1.5*float64(idle) {
		t.Fatalf("no-load sibling contention should be mild: packed=%v idle=%v", packed, idle)
	}
}

func TestBindRTTracking(t *testing.T) {
	m := newNoJitter(CPULoad)
	m.BindRT(3)
	m.BindRT(3)
	if m.BoundRT(3) != 2 {
		t.Fatalf("bound %d, want 2", m.BoundRT(3))
	}
	m.UnbindRT(3)
	m.UnbindRT(3)
	if m.BoundRT(3) != 0 {
		t.Fatalf("bound %d, want 0", m.BoundRT(3))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unbind imbalance should panic")
		}
	}()
	m.UnbindRT(3)
}

func TestRemoteCostAddsCrossCorePenalty(t *testing.T) {
	m := newNoJitter(CPUMemoryLoad)
	local := m.RemoteCost(OpCondSignal, 0, 57) // same core (slot 1 of core 0)
	remote := m.RemoteCost(OpCondSignal, 0, 1) // different core
	if remote <= local {
		t.Fatalf("remote %v should exceed local %v", remote, local)
	}
}

func TestSetOccupantTracksActiveRT(t *testing.T) {
	m := newNoJitter(NoLoad)
	m.SetOccupant(3, OccupantRT)
	m.SetOccupant(3, OccupantRT) // idempotent
	if m.ActiveRT() != 1 {
		t.Fatalf("activeRT %d, want 1", m.ActiveRT())
	}
	if m.Occupant(3) != OccupantRT {
		t.Fatal("occupant not recorded")
	}
	m.SetOccupant(3, OccupantIdle)
	if m.ActiveRT() != 0 {
		t.Fatalf("activeRT %d, want 0", m.ActiveRT())
	}
}

func TestSetOccupantPanicsOutOfRange(t *testing.T) {
	m := newNoJitter(NoLoad)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.SetOccupant(HWThread(999), OccupantRT)
}

func TestJitterBoundedAndDeterministic(t *testing.T) {
	model := DefaultCostModel()
	m1 := MustNew(XeonPhi3120A(), NoLoad, model, 42)
	m2 := MustNew(XeonPhi3120A(), NoLoad, model, 42)
	base := model.Base[OpDispatch]
	for i := 0; i < 100; i++ {
		a := m1.Cost(OpDispatch, 0)
		b := m2.Cost(OpDispatch, 0)
		if a != b {
			t.Fatal("same seed must give same costs")
		}
		if a <= 0 || a > 2*base {
			t.Fatalf("jittered cost %v outside sane bounds of base %v", a, base)
		}
	}
}

// Property: every op cost is positive on every hardware thread under every
// load.
func TestPropertyCostsPositive(t *testing.T) {
	ops := []Op{OpDispatch, OpContextSwitch, OpCondSignal, OpCondWait,
		OpTimerProgram, OpTimerInterrupt, OpSigSetjmp, OpSigLongjmp, OpRemoteWake}
	f := func(hw uint8, opIdx uint8, loadIdx uint8) bool {
		load := Loads()[int(loadIdx)%3]
		m := newNoJitter(load)
		h := HWThread(int(hw) % m.Topology().NumHWThreads())
		op := ops[int(opIdx)%len(ops)]
		return m.Cost(op, h) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpStrings(t *testing.T) {
	for _, op := range []Op{OpDispatch, OpContextSwitch, OpCondSignal, OpCondWait,
		OpTimerProgram, OpTimerInterrupt, OpSigSetjmp, OpSigLongjmp, OpRemoteWake} {
		if op.String() == "unknown-op" {
			t.Fatalf("op %d missing a label", op)
		}
	}
	if Op(0).String() != "unknown-op" {
		t.Fatal("zero op should be unknown")
	}
}

// ThroughputFactor: a part's work rate suffers from bound RT siblings and
// (under load) from background hogs on unbound siblings.
func TestThroughputFactor(t *testing.T) {
	m := newNoJitter(NoLoad)
	if f := m.ThroughputFactor(5); f != 1.0 {
		t.Fatalf("idle siblings should give factor 1, got %v", f)
	}
	for _, s := range m.Topology().SiblingsOf(5) {
		if s != 5 {
			m.BindRT(s)
		}
	}
	packed := m.ThroughputFactor(5)
	if packed <= 1.0 {
		t.Fatalf("RT siblings should slow the part: %v", packed)
	}
	loaded := newNoJitter(CPUMemoryLoad)
	alone := loaded.ThroughputFactor(5)
	if alone <= packed {
		t.Fatalf("background siblings (%v) should slow more than RT siblings (%v)", alone, packed)
	}
}
