package core

import (
	"testing"
	"testing/quick"
	"time"

	"rtseed/internal/assign"
	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/task"
)

// Property suite over randomized single-task configurations: the middleware
// must uphold the model's invariants for any feasible parameters.
func TestPropertyProcessInvariants(t *testing.T) {
	f := func(np8, oLen8, load8, pol8, seed uint8) bool {
		np := int(np8)%6 + 1
		optLen := time.Duration(oLen8%120+1) * time.Millisecond
		load := machine.Loads()[int(load8)%3]
		pol := assign.Policies()[int(pol8)%3]

		model := machine.DefaultCostModel()
		m, err := machine.New(machine.Topology{Cores: 8, ThreadsPerCore: 4}, load, model, uint64(seed)+1)
		if err != nil {
			return false
		}
		k := kernel.New(engine.New(), m)
		tk := task.Uniform("p", 20*time.Millisecond, 20*time.Millisecond, optLen, np, 100*time.Millisecond)
		cpus, err := assign.HWThreads(m.Topology(), pol, np)
		if err != nil {
			return false
		}
		const jobs = 3
		p, err := NewProcess(k, Config{
			Task:              tk,
			MandatoryPriority: 90,
			MandatoryCPU:      0,
			OptionalCPUs:      cpus,
			OptionalDeadline:  70 * time.Millisecond,
			Jobs:              jobs,
		})
		if err != nil {
			return false
		}
		p.Start()
		k.RunUntil(engine.At(time.Second))

		recs := p.Records()
		if len(recs) != jobs {
			return false
		}
		for _, rec := range recs {
			// Timestamps are ordered within a job.
			if !(rec.Release <= rec.MandatoryStart &&
				rec.MandatoryStart <= rec.WindupStart &&
				rec.WindupStart <= rec.Finish) {
				return false
			}
			if len(rec.Parts) != np {
				return false
			}
			for _, part := range rec.Parts {
				switch part.Outcome {
				case task.PartCompleted:
					// A completed part executed its full length.
					if part.Executed < part.Length {
						return false
					}
				case task.PartTerminated:
					// A terminated part executed strictly less.
					if part.Executed >= part.Length {
						return false
					}
				case task.PartDiscarded:
					if part.Executed != 0 {
						return false
					}
				default:
					return false
				}
				if part.Progress() < 0 || part.Progress() > 1 {
					return false
				}
			}
			// The wind-up never starts before a terminated part's optional
			// deadline (70ms after release).
			terminated := false
			for _, part := range rec.Parts {
				if part.Outcome == task.PartTerminated {
					terminated = true
				}
			}
			if terminated && rec.WindupStart < rec.Release+70*time.Millisecond {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// A task with no optional parts degenerates to plain periodic execution:
// the wind-up follows the mandatory part immediately.
func TestProcessWithoutOptionalParts(t *testing.T) {
	k := newSim(t, machine.NoLoad)
	tk := task.Uniform("pure", ms(20), ms(20), 0, 0, ms(100))
	p, err := NewProcess(k, Config{
		Task:              tk,
		MandatoryPriority: 90,
		MandatoryCPU:      0,
		OptionalCPUs:      nil,
		OptionalDeadline:  ms(70),
		Jobs:              3,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	k.Run()
	st := p.Stats()
	if st.Jobs != 3 || st.DeadlineMisses != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.MeanQoS != 1 {
		t.Fatalf("no optional parts means full QoS, got %v", st.MeanQoS)
	}
	for _, rec := range p.Records() {
		// Wind-up right after mandatory, not at the optional deadline.
		if rec.WindupStart-rec.MandatoryStart > ms(25) {
			t.Fatalf("wind-up waited: %+v", rec)
		}
	}
}

// Zero-length optional parts complete instantly.
// Zero-length parts complete under every mechanism — including periodic
// check, which ends such a part before issuing any kernel action.
func TestProcessZeroLengthOptionals(t *testing.T) {
	for _, term := range []Termination{SigjmpTermination{}, PeriodicCheckTermination{}, TryCatchTermination{}} {
		k := newSim(t, machine.NoLoad)
		tk := task.Uniform("z", ms(20), ms(20), 0, 2, ms(100))
		cpus, _ := assign.HWThreads(k.Machine().Topology(), assign.OneByOne, 2)
		p, err := NewProcess(k, Config{
			Task:              tk,
			MandatoryPriority: 90,
			MandatoryCPU:      0,
			OptionalCPUs:      cpus,
			OptionalDeadline:  ms(70),
			Jobs:              2,
			Termination:       term,
		})
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		k.Run()
		st := p.Stats()
		if st.CompletedParts != 4 {
			t.Fatalf("%s: completed %d, want 4", term.Name(), st.CompletedParts)
		}
		if st.DeadlineMisses != 0 {
			t.Fatalf("%s: misses %d", term.Name(), st.DeadlineMisses)
		}
	}
}

// Truncating the simulation mid-run (RunUntil) leaves a consistent partial
// record and leaks no goroutines (Shutdown unwinds the parked threads).
func TestProcessTruncatedRun(t *testing.T) {
	k := newSim(t, machine.NoLoad)
	p := newProcess(t, k, paperTask(4, time.Second), 100, nil, Probes{}, App{})
	p.Start()
	k.RunUntil(engine.At(250 * time.Millisecond)) // ~2.5 jobs
	recs := p.Records()
	if len(recs) < 2 || len(recs) > 3 {
		t.Fatalf("%d complete jobs recorded after truncation, want 2-3", len(recs))
	}
	for _, th := range k.Threads() {
		if th.State() != kernel.StateExited {
			t.Fatalf("thread %v not unwound after shutdown", th)
		}
	}
}

// The same process configuration with jitter enabled still meets all
// deadlines — the overhead margin absorbs the noise.
func TestProcessWithJitter(t *testing.T) {
	model := machine.DefaultCostModel() // default jitter
	m, err := machine.New(machine.Topology{Cores: 8, ThreadsPerCore: 4}, machine.CPUMemoryLoad, model, 99)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(engine.New(), m)
	tk := paperTask(4, time.Second)
	cpus, _ := assign.HWThreads(m.Topology(), assign.OneByOne, 4)
	p, err := NewProcess(k, Config{
		Task:              tk,
		MandatoryPriority: 90,
		MandatoryCPU:      0,
		OptionalCPUs:      cpus,
		OptionalDeadline:  ms(70),
		Jobs:              10,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	k.Run()
	if st := p.Stats(); st.DeadlineMisses != 0 {
		t.Fatalf("misses under jitter: %+v", st)
	}
}
