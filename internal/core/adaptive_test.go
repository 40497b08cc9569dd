package core

import (
	"testing"
	"time"

	"rtseed/internal/assign"
	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/task"
)

func TestAdaptiveNextAIMD(t *testing.T) {
	a := &Adaptive{EndingBudget: time.Millisecond}
	// Over budget: multiplicative decrease.
	if got := a.next(16, 32, 2*time.Millisecond); got != 12 {
		t.Fatalf("decrease: %d, want 12", got)
	}
	// Under half budget: additive increase.
	if got := a.next(16, 32, 100*time.Microsecond); got != 17 {
		t.Fatalf("increase: %d, want 17", got)
	}
	// In the comfort band: hold.
	if got := a.next(16, 32, 700*time.Microsecond); got != 16 {
		t.Fatalf("hold: %d, want 16", got)
	}
	// Floors and caps.
	if got := a.next(1, 32, time.Hour); got != 1 {
		t.Fatalf("floor: %d, want 1", got)
	}
	if got := a.next(32, 32, 0); got != 32 {
		t.Fatalf("cap: %d, want 32", got)
	}
}

// Under heavy load with many parts, the controller backs off until the
// ending overhead fits its budget; without it, the full part count runs
// every job.
func TestAdaptiveControllerConverges(t *testing.T) {
	const np = 32
	runWith := func(adaptive *Adaptive) (*Process, *kernel.Kernel) {
		model := machine.DefaultCostModel()
		model.JitterFrac = 0
		mach, err := machine.New(machine.XeonPhi3120A(), machine.CPUMemoryLoad, model, 9)
		if err != nil {
			t.Fatal(err)
		}
		k := kernel.New(engine.New(), mach)
		tk := task.Uniform("a", 25*time.Millisecond, 25*time.Millisecond, time.Second, np, 100*time.Millisecond)
		cpus, err := assign.HWThreads(mach.Topology(), assign.OneByOne, np)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProcess(k, Config{
			Task:              tk,
			MandatoryPriority: 90,
			MandatoryCPU:      0,
			OptionalCPUs:      cpus,
			OptionalDeadline:  65 * time.Millisecond,
			Jobs:              20,
			Adaptive:          adaptive,
		})
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		k.Run()
		return p, k
	}

	// At np=32 under CPU-Memory load the ending overhead is several ms;
	// budget it to 2ms and the controller must shed parts.
	adaptive := &Adaptive{EndingBudget: 2 * time.Millisecond}
	p, _ := runWith(adaptive)
	if got := p.ActiveParts(); got >= np {
		t.Fatalf("controller did not back off: active=%d", got)
	}
	if got := p.ActiveParts(); got < 1 {
		t.Fatalf("controller under floor: %d", got)
	}
	// Discarded parts appear in the records once the controller sheds.
	if st := p.Stats(); st.DiscardedParts == 0 {
		t.Fatalf("expected shed parts to be discarded: %+v", st)
	}
	// The last jobs' ending lag respects the budget (with protocol slack).
	recs := p.Records()
	last := recs[len(recs)-1]
	lag := time.Duration(last.WindupStart) - time.Duration(last.Release) - 65*time.Millisecond
	if lag > 3*time.Millisecond {
		t.Fatalf("converged lag %v exceeds budget", lag)
	}

	// Without the controller every part runs every job.
	free, _ := runWith(nil)
	if free.ActiveParts() != np {
		t.Fatalf("uncontrolled process should keep all %d parts, got %d", np, free.ActiveParts())
	}
	if st := free.Stats(); st.DiscardedParts != 0 {
		t.Fatalf("uncontrolled process discarded parts: %+v", st)
	}
}

// With a generous budget the controller keeps (or climbs back to) the full
// part count.
func TestAdaptiveGenerousBudgetKeepsAllParts(t *testing.T) {
	model := machine.DefaultCostModel()
	model.JitterFrac = 0
	mach, err := machine.New(machine.Topology{Cores: 8, ThreadsPerCore: 4}, machine.NoLoad, model, 9)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(engine.New(), mach)
	tk := task.Uniform("a", 20*time.Millisecond, 20*time.Millisecond, time.Second, 4, 100*time.Millisecond)
	cpus, _ := assign.HWThreads(mach.Topology(), assign.OneByOne, 4)
	p, err := NewProcess(k, Config{
		Task:              tk,
		MandatoryPriority: 90,
		MandatoryCPU:      0,
		OptionalCPUs:      cpus,
		OptionalDeadline:  70 * time.Millisecond,
		Jobs:              10,
		Adaptive:          &Adaptive{EndingBudget: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	k.Run()
	if p.ActiveParts() != 4 {
		t.Fatalf("active parts %d, want 4", p.ActiveParts())
	}
	if st := p.Stats(); st.DiscardedParts != 0 {
		t.Fatalf("generous budget discarded parts: %+v", st)
	}
}
