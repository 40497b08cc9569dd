package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"rtseed/internal/assign"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/task"
	"rtseed/internal/trace"
)

// practicalTask builds a two-section practical task: T=100ms, sections
// (m=10ms, 2 parts) and (m=15ms, 1 part), wind-up 20ms.
func practicalTask(o time.Duration) task.PracticalTask {
	return task.PracticalTask{
		Name: "prac",
		Sections: []task.Section{
			{Mandatory: ms(10), Optional: []time.Duration{o, o}},
			{Mandatory: ms(15), Optional: []time.Duration{o}},
		},
		Windup: ms(20),
		Period: ms(100),
	}
}

// runPractical runs tk for the given jobs with a 70ms task-level optional
// deadline, the mandatory thread on CPU 0 and the parts placed one by one.
func runPractical(t *testing.T, k *kernel.Kernel, tk task.PracticalTask, jobs int, term Termination) *Process {
	t.Helper()
	cpus, err := assign.HWThreads(k.Machine().Topology(), assign.OneByOne, tk.NumOptional())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPracticalProcess(k, PracticalConfig{
		Task:              tk,
		MandatoryPriority: 90,
		MandatoryCPU:      0,
		OptionalCPUs:      cpus,
		OptionalDeadline:  ms(70),
		Jobs:              jobs,
		Termination:       term,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	k.Run()
	return p
}

func TestPracticalValidate(t *testing.T) {
	if err := practicalTask(time.Second).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []task.PracticalTask{
		{Name: "no-sections", Windup: 1, Period: 10},
		{Name: "zero-m", Sections: []task.Section{{Mandatory: 0}}, Period: 10},
		{Name: "overfull", Sections: []task.Section{{Mandatory: 9}}, Windup: 9, Period: 10},
		{Name: "neg-opt", Sections: []task.Section{{Mandatory: 1, Optional: []time.Duration{-1}}}, Period: 10},
	}
	for _, tk := range bad {
		if err := tk.Validate(); err == nil {
			t.Errorf("%s accepted", tk.Name)
		}
	}
}

func TestPracticalFlattenEquivalence(t *testing.T) {
	tk := practicalTask(time.Second)
	flat := tk.Flatten()
	if flat.Mandatory != ms(25) || flat.Windup != ms(20) || flat.Period != ms(100) {
		t.Fatalf("flattened %+v", flat)
	}
	if flat.NumOptional() != 3 {
		t.Fatalf("flattened np %d, want 3", flat.NumOptional())
	}
	if tk.WCET() != flat.WCET() || tk.Utilization() != flat.Utilization() {
		t.Fatal("flatten must preserve the real-time demand")
	}
	if err := flat.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSectionDeadlines(t *testing.T) {
	tk := practicalTask(time.Second) // equal optional lengths
	ods, err := tk.SectionDeadlines(ms(75))
	if err != nil {
		t.Fatal(err)
	}
	if len(ods) != 2 {
		t.Fatalf("%d deadlines", len(ods))
	}
	// Slack = 75 - 25 = 50ms, split 2:1 by optional workload:
	// OD_0 = 10 + 33.3 = 43.3ms, OD_1 = 75ms.
	if ods[1] != ms(75) {
		t.Fatalf("last section deadline %v, want 75ms", ods[1])
	}
	if ods[0] <= ms(10) || ods[0] >= ods[1] {
		t.Fatalf("section deadlines %v not strictly increasing within budget", ods)
	}
	want0 := ms(10) + time.Duration(float64(ms(50))*2.0/3.0)
	if diff := ods[0] - want0; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("OD_0 = %v, want ~%v (2/3 of slack)", ods[0], want0)
	}
	if _, err := tk.SectionDeadlines(ms(10)); err == nil {
		t.Fatal("OD below total mandatory accepted")
	}
	if _, err := tk.SectionDeadlines(ms(200)); err == nil {
		t.Fatal("OD beyond period accepted")
	}
}

func TestPracticalProcessRuns(t *testing.T) {
	k := newSim(t, machine.NoLoad)
	p := runPractical(t, k, practicalTask(time.Second), 4, nil) // all parts overrun
	st := p.Stats()
	if st.Jobs != 4 {
		t.Fatalf("jobs %d, want 4", st.Jobs)
	}
	if st.DeadlineMisses != 0 {
		t.Fatalf("misses %d", st.DeadlineMisses)
	}
	// 3 parts per job, all overrunning -> all terminated.
	if st.TerminatedParts != 12 {
		t.Fatalf("terminated %d, want 12", st.TerminatedParts)
	}
	// Sections ran in order: every job's wind-up starts at the last
	// section's optional deadline (70ms) plus ending overhead.
	for _, rec := range p.Records() {
		lag := rec.WindupStart - rec.Release - ms(70)
		if lag < 0 || lag > ms(10) {
			t.Fatalf("job %d wind-up lag %v", rec.Job, lag)
		}
	}
}

func TestPracticalSectionsInterleave(t *testing.T) {
	k := newSim(t, machine.NoLoad)
	// Short optional parts complete within their section windows.
	p := runPractical(t, k, practicalTask(ms(2)), 2, nil)
	st := p.Stats()
	if st.CompletedParts != 6 {
		t.Fatalf("completed %d, want 6", st.CompletedParts)
	}
	if st.MeanQoS != 1 {
		t.Fatalf("QoS %v", st.MeanQoS)
	}
}

// The periodic check and try-catch mechanisms end each section's parts
// with their Table I behaviour, as the default sigjmp one does.
func TestPracticalTerminationMechanisms(t *testing.T) {
	// Periodic check: every part polls past its section's optional
	// deadline by at most one 1ms check period, so all 12 parts are
	// terminated and the wind-up starts within 1ms of the 70ms OD.
	p := runPractical(t, newSim(t, machine.NoLoad), practicalTask(time.Second), 4, PeriodicCheckTermination{})
	if st := p.Stats(); st.Jobs != 4 || st.TerminatedParts != 12 || st.DeadlineMisses != 0 {
		t.Fatalf("periodic check: %+v, want 4 jobs, 12 terminated, no misses", st)
	}
	for _, rec := range p.Records() {
		if lag := rec.WindupStart - rec.Release - ms(70); lag < 0 || lag > time.Millisecond {
			t.Fatalf("periodic check: job %d wind-up %v after the OD, want within one check period", rec.Job, lag)
		}
	}

	// Try-catch terminates job 0's three parts but leaves SIGALRM
	// masked: job 1's section-0 parts then run to completion (1s each),
	// and job 1 and every later job miss.
	p = runPractical(t, newSim(t, machine.NoLoad), practicalTask(time.Second), 4, TryCatchTermination{})
	st := p.Stats()
	if st.CompletedParts != 2 || st.TerminatedParts != 3 || st.DiscardedParts != 7 || st.DeadlineMisses != 3 {
		t.Fatalf("try-catch: %+v, want done=2 cut=3 drop=7 and 3 misses", st)
	}
	recs := p.Records()
	for k, part := range recs[0].Parts {
		if part.Outcome != task.PartTerminated {
			t.Fatalf("try-catch: job 0 part %d %v, want terminated", k, part.Outcome)
		}
	}
	for k, part := range recs[1].Parts[:2] {
		if part.Outcome != task.PartCompleted || part.Executed != time.Second {
			t.Fatalf("try-catch: job 1 part %d %+v, want completed after 1s", k, part)
		}
	}
}

// The middleware trace of a two-section task agrees with the job records:
// one release latency and response per job, and the same part and miss
// counts. Try-catch makes every counter nonzero.
func TestPracticalTraceMatchesStats(t *testing.T) {
	k := newSim(t, machine.NoLoad)
	tr := trace.New(trace.Config{CPUs: k.Machine().Topology().NumHWThreads()})
	k.SetTrace(tr)
	p := runPractical(t, k, practicalTask(time.Second), 4, TryCatchTermination{})
	st := p.Stats()
	a := trace.Analyze(&trace.Trace{Records: tr.Records(), Threads: k.ThreadInfos(), Lost: tr.Lost()})
	if a.Lost != 0 {
		t.Fatalf("flight recorder overwrote %d records", a.Lost)
	}
	ts := a.TaskByName("prac")
	if ts == nil {
		t.Fatalf("no task prac in the trace analysis: %+v", a.Tasks)
	}
	if ts.Jobs != st.Jobs || ts.Completed != st.CompletedParts || ts.Terminated != st.TerminatedParts ||
		ts.Discarded != st.DiscardedParts || ts.Misses != st.DeadlineMisses {
		t.Fatalf("trace jobs=%d done=%d cut=%d drop=%d misses=%d, records %+v",
			ts.Jobs, ts.Completed, ts.Terminated, ts.Discarded, ts.Misses, st)
	}
	if ts.ReleaseLat.N != uint64(st.Jobs) || ts.Response.N != uint64(st.Jobs) {
		t.Fatalf("%d release latencies and %d responses for %d jobs", ts.ReleaseLat.N, ts.Response.N, st.Jobs)
	}
}

func TestPracticalWithOneSectionMatchesParallelExtended(t *testing.T) {
	// With a single section the practical model reduces to the
	// parallel-extended model: the same job records and the same trace
	// bytes as the flattened task.
	single := task.PracticalTask{
		Name:     "one",
		Sections: []task.Section{{Mandatory: ms(25), Optional: []time.Duration{time.Second, time.Second}}},
		Windup:   ms(25),
		Period:   ms(100),
	}
	run := func(build func(k *kernel.Kernel, cpus []machine.HWThread) (*Process, error)) ([]task.JobRecord, []byte) {
		k := newSim(t, machine.NoLoad)
		var buf bytes.Buffer
		k.SetTrace(trace.New(trace.Config{CPUs: k.Machine().Topology().NumHWThreads(), Sink: &buf}))
		cpus, err := assign.HWThreads(k.Machine().Topology(), assign.OneByOne, 2)
		if err != nil {
			t.Fatal(err)
		}
		p, err := build(k, cpus)
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		k.Run()
		if err := k.Trace().Close(k.ThreadInfos()); err != nil {
			t.Fatal(err)
		}
		return p.Records(), buf.Bytes()
	}
	practical, practicalTrace := run(func(k *kernel.Kernel, cpus []machine.HWThread) (*Process, error) {
		return NewPracticalProcess(k, PracticalConfig{
			Task: single, MandatoryPriority: 90, MandatoryCPU: 0,
			OptionalCPUs: cpus, OptionalDeadline: ms(70), Jobs: 3,
		})
	})
	flat, flatTrace := run(func(k *kernel.Kernel, cpus []machine.HWThread) (*Process, error) {
		return NewProcess(k, Config{
			Task: single.Flatten(), MandatoryPriority: 90, MandatoryCPU: 0,
			OptionalCPUs: cpus, OptionalDeadline: ms(70), Jobs: 3,
		})
	})
	if len(practical) != 3 || !reflect.DeepEqual(practical, flat) {
		t.Fatalf("practical records %+v\nparallel-extended records %+v", practical, flat)
	}
	if !bytes.Equal(practicalTrace, flatTrace) {
		t.Fatalf("trace files differ: practical %d bytes, parallel-extended %d bytes", len(practicalTrace), len(flatTrace))
	}
}

func TestPracticalConfigValidation(t *testing.T) {
	k := newSim(t, machine.NoLoad)
	tk := practicalTask(time.Second)
	cpus, _ := assign.HWThreads(k.Machine().Topology(), assign.OneByOne, tk.NumOptional())
	base := PracticalConfig{
		Task: tk, MandatoryPriority: 90, MandatoryCPU: 0,
		OptionalCPUs: cpus, OptionalDeadline: ms(70), Jobs: 1,
	}
	bad := []func(*PracticalConfig){
		func(c *PracticalConfig) { c.MandatoryPriority = 10 },
		func(c *PracticalConfig) { c.Jobs = 0 },
		func(c *PracticalConfig) { c.OptionalCPUs = cpus[:1] },
		func(c *PracticalConfig) { c.OptionalDeadline = ms(5) },
		func(c *PracticalConfig) { c.SectionDeadlines = []time.Duration{ms(40)} },
		func(c *PracticalConfig) { c.SectionDeadlines = []time.Duration{ms(50), ms(40)} },
		func(c *PracticalConfig) { c.SectionDeadlines = []time.Duration{ms(40), ms(90)} },
		func(c *PracticalConfig) {
			c.OptionalDeadline = -ms(1)
			c.SectionDeadlines = []time.Duration{-ms(10), -ms(5)}
		},
		func(c *PracticalConfig) { c.SectionDeadlines = []time.Duration{0, ms(40)} },
		func(c *PracticalConfig) { c.MandatoryCPU = 1 }, // first part must share it (§IV)
	}
	for i, mutate := range bad {
		cfg := base
		mutate(&cfg)
		if _, err := NewPracticalProcess(k, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := NewPracticalProcess(k, base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	hpq := base
	hpq.MandatoryPriority = HPQPriority
	if _, err := NewPracticalProcess(k, hpq); err != nil {
		t.Fatalf("HPQ priority rejected: %v", err)
	}
}
