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

func ms(d int) time.Duration { return time.Duration(d) * time.Millisecond }

// newSim builds a kernel on a small Phi-like machine with zero jitter.
func newSim(t testing.TB, load machine.Load) *kernel.Kernel {
	t.Helper()
	model := machine.DefaultCostModel()
	model.JitterFrac = 0
	topo := machine.Topology{Cores: 8, ThreadsPerCore: 4}
	m, err := machine.New(topo, load, model, 7)
	if err != nil {
		t.Fatal(err)
	}
	return kernel.New(engine.New(), m)
}

// paperTask is a scaled-down version of the evaluation task: T=100ms,
// m=w=25ms, optional parts of `o` each.
func paperTask(np int, o time.Duration) task.Task {
	return task.Uniform("tau1", ms(25), ms(25), o, np, ms(100))
}

func newProcess(t testing.TB, k *kernel.Kernel, tk task.Task, jobs int, term Termination, probes Probes, app App) *Process {
	t.Helper()
	cpus, err := assign.HWThreads(k.Machine().Topology(), assign.OneByOne, tk.NumOptional())
	if err != nil {
		t.Fatal(err)
	}
	// The paper includes scheduling overheads in the mandatory/wind-up
	// WCETs (§II-A); the nominal compute here excludes them, so the
	// optional deadline leaves a 5ms overhead margin before the wind-up.
	p, err := NewProcess(k, Config{
		Task:              tk,
		MandatoryPriority: 90,
		MandatoryCPU:      0,
		OptionalCPUs:      cpus,
		OptionalDeadline:  tk.Period - tk.Windup - ms(5),
		Jobs:              jobs,
		Termination:       term,
		Probes:            probes,
		App:               app,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPriorityMapping(t *testing.T) {
	if p, err := OptionalPriority(90); err != nil || p != 41 {
		t.Fatalf("OptionalPriority(90) = %d, %v; want 41 (paper example)", p, err)
	}
	if p, err := OptionalPriority(50); err != nil || p != 1 {
		t.Fatalf("OptionalPriority(50) = %d, %v; want 1", p, err)
	}
	if p, err := OptionalPriority(HPQPriority); err != nil || p != NRTQMax {
		t.Fatalf("OptionalPriority(HPQ) = %d, %v; want top NRTQ level %d", p, err, NRTQMax)
	}
	if _, err := OptionalPriority(49); err == nil {
		t.Fatal("NRTQ priority must be rejected")
	}
	if _, err := OptionalPriority(100); err == nil {
		t.Fatal("out-of-range priority must be rejected")
	}
}

func TestRTQPriorities(t *testing.T) {
	ps, err := RTQPriorities(3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{98, 97, 96}
	for i := range want {
		if ps[i] != want[i] {
			t.Fatalf("priorities %v, want %v", ps, want)
		}
	}
	if _, err := RTQPriorities(0); err == nil {
		t.Fatal("zero tasks accepted")
	}
	if _, err := RTQPriorities(50); err == nil {
		t.Fatal("more tasks than RTQ levels accepted")
	}
	if _, err := RTQPriorities(49); err != nil {
		t.Fatal("49 tasks must fit the RTQ")
	}
}

// All jobs meet their deadlines and overrunning optional parts are
// terminated: the semi-fixed-priority guarantee.
func TestProcessMeetsDeadlinesWithOverrunningOptionals(t *testing.T) {
	k := newSim(t, machine.NoLoad)
	// Optional parts of 1s never finish within a 100ms period.
	p := newProcess(t, k, paperTask(4, time.Second), 5, nil, Probes{}, App{})
	p.Start()
	k.Run()
	stats := p.Stats()
	if stats.Jobs != 5 {
		t.Fatalf("jobs %d, want 5", stats.Jobs)
	}
	if stats.DeadlineMisses != 0 {
		t.Fatalf("misses %d, want 0", stats.DeadlineMisses)
	}
	if stats.TerminatedParts != 20 {
		t.Fatalf("terminated %d, want 20 (all parts overrun)", stats.TerminatedParts)
	}
	if stats.CompletedParts != 0 || stats.DiscardedParts != 0 {
		t.Fatalf("stats %+v", stats)
	}
}

// Short optional parts complete before the optional deadline and the timer
// is cancelled.
func TestProcessCompletesShortOptionals(t *testing.T) {
	k := newSim(t, machine.NoLoad)
	p := newProcess(t, k, paperTask(4, ms(5)), 3, nil, Probes{}, App{})
	p.Start()
	k.Run()
	stats := p.Stats()
	if stats.CompletedParts != 12 {
		t.Fatalf("completed %d, want 12", stats.CompletedParts)
	}
	if stats.MeanQoS != 1 {
		t.Fatalf("QoS %v, want 1", stats.MeanQoS)
	}
	if stats.DeadlineMisses != 0 {
		t.Fatalf("misses %d", stats.DeadlineMisses)
	}
}

// QoS increases with the optional deadline headroom: terminated parts report
// partial progress proportional to the time they ran.
func TestQoSReflectsProgress(t *testing.T) {
	k := newSim(t, machine.NoLoad)
	// m=25ms, OD at 75ms => ~50ms of optional execution out of 100ms parts
	// => progress ~0.5.
	p := newProcess(t, k, paperTask(2, ms(100)), 3, nil, Probes{}, App{})
	p.Start()
	k.Run()
	stats := p.Stats()
	if stats.MeanQoS < 0.4 || stats.MeanQoS > 0.6 {
		t.Fatalf("QoS %v, want ~0.5", stats.MeanQoS)
	}
}

// The wind-up part always starts after the optional deadline when parts
// overrun, and jobs still meet deadlines — Fig. 3's semi-fixed-priority
// behaviour.
func TestWindupStartsAtOptionalDeadline(t *testing.T) {
	k := newSim(t, machine.NoLoad)
	var windupStarts []time.Duration
	var ods []time.Duration
	probes := Probes{
		OnWindupStart: func(job int, od, start engine.Time) {
			ods = append(ods, od.Duration())
			windupStarts = append(windupStarts, start.Duration())
		},
	}
	p := newProcess(t, k, paperTask(4, time.Second), 3, nil, probes, App{})
	p.Start()
	k.Run()
	if len(windupStarts) != 3 {
		t.Fatalf("%d wind-ups, want 3", len(windupStarts))
	}
	for i := range windupStarts {
		delta := windupStarts[i] - ods[i]
		if delta < 0 {
			t.Fatalf("job %d: wind-up before optional deadline (%v)", i, delta)
		}
		if delta > ms(20) {
			t.Fatalf("job %d: ending overhead %v implausibly large", i, delta)
		}
	}
}

// Discard path: when the mandatory part finishes after the optional
// deadline, optional parts are never signalled (paper Fig. 1 / §IV-C).
func TestOptionalPartsDiscardedWhenNoTime(t *testing.T) {
	k := newSim(t, machine.NoLoad)
	// OD = 26ms, mandatory = 25ms: dispatch overheads push mandatory
	// completion past the OD on every job.
	tk := paperTask(4, time.Second)
	cpus, _ := assign.HWThreads(k.Machine().Topology(), assign.OneByOne, 4)
	p, err := NewProcess(k, Config{
		Task:              tk,
		MandatoryPriority: 90,
		MandatoryCPU:      0,
		OptionalCPUs:      cpus,
		OptionalDeadline:  ms(25),
		Jobs:              3,
		App: App{OnOptional: func(int, int, float64) {
			t.Error("optional callback must not fire for discarded parts")
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	k.Run()
	stats := p.Stats()
	if stats.DiscardedParts != 12 {
		t.Fatalf("discarded %d, want 12", stats.DiscardedParts)
	}
	if stats.MeanQoS != 0 {
		t.Fatalf("QoS %v, want 0 for all-discarded", stats.MeanQoS)
	}
}

// Table I, row 1: sigsetjmp/siglongjmp terminates at any time AND restores
// the signal mask, so every job's optional parts are terminated at the
// optional deadline.
func TestTableISigjmpEveryJobTerminates(t *testing.T) {
	k := newSim(t, machine.NoLoad)
	p := newProcess(t, k, paperTask(2, time.Second), 5, SigjmpTermination{}, Probes{}, App{})
	p.Start()
	k.Run()
	stats := p.Stats()
	if stats.TerminatedParts != 10 {
		t.Fatalf("terminated %d, want 10: mask restoration must keep the timer working", stats.TerminatedParts)
	}
	if stats.DeadlineMisses != 0 {
		t.Fatalf("misses %d", stats.DeadlineMisses)
	}
}

// Table I, row 3: try-catch terminates the first job, but the signal mask is
// never restored, so from the second job on the optional-deadline timer
// cannot fire: optional parts run to completion and wind-up parts miss
// deadlines.
func TestTableITryCatchLosesTimerAfterFirstJob(t *testing.T) {
	k := newSim(t, machine.NoLoad)
	p := newProcess(t, k, paperTask(2, time.Second), 3, TryCatchTermination{}, Probes{}, App{})
	p.Start()
	// Give the sim enough horizon: runaway optional parts make jobs late.
	k.RunUntil(engine.At(10 * time.Second))
	recs := p.Records()
	if len(recs) == 0 {
		t.Fatal("no jobs recorded")
	}
	// Job 0 behaves: parts terminated.
	for _, part := range recs[0].Parts {
		if part.Outcome != task.PartTerminated {
			t.Fatalf("job 0 part %v, want terminated", part.Outcome)
		}
	}
	if !recs[0].Met() {
		t.Fatal("job 0 should meet its deadline")
	}
	if len(recs) < 2 {
		t.Fatal("second job never finished")
	}
	// Job 1: the stuck signal mask lets the 1s optional parts run to
	// completion, so the job blows through its deadline.
	sawRunaway := false
	for _, part := range recs[1].Parts {
		if part.Outcome == task.PartCompleted {
			sawRunaway = true
		}
	}
	if !sawRunaway {
		t.Fatal("job 1 should have run an optional part to completion (timer lost)")
	}
	if recs[1].Met() {
		t.Fatal("job 1 should miss its deadline")
	}
	// No release is dropped: job 2's whole window passes while job 1 runs
	// away, and job 2 starts late instead (a past absolute sleep returns
	// at once).
	if len(recs) != 3 || recs[2].Job != 2 || recs[2].MandatoryStart < recs[2].Release+ms(100) {
		t.Fatalf("want job 2 released late after the runaway job 1, got %d records, last %+v", len(recs), recs[len(recs)-1])
	}
}

// Table I, row 2: periodic check cannot terminate at any time — parts
// overrun the optional deadline by up to one check period; with a coarse
// period the overshoot is visible next to sigjmp's immediate cut.
func TestTableIPeriodicCheckOvershoots(t *testing.T) {
	measure := func(term Termination) time.Duration {
		k := newSim(t, machine.NoLoad)
		var worst time.Duration
		probes := Probes{OnWindupStart: func(job int, od, start engine.Time) {
			if d := start.Sub(od); d > worst {
				worst = d
			}
		}}
		p := newProcess(t, k, paperTask(2, time.Second), 3, term, probes, App{})
		p.Start()
		k.Run()
		return worst
	}
	sig := measure(SigjmpTermination{})
	periodic := measure(PeriodicCheckTermination{Period: 7 * time.Millisecond})
	if periodic <= sig {
		t.Fatalf("periodic check overshoot %v should exceed sigjmp %v", periodic, sig)
	}
	if periodic < 2*time.Millisecond || periodic > ms(10) {
		t.Fatalf("periodic overshoot %v should be on the order of the check period", periodic)
	}
}

// Table I as a feature matrix.
func TestTableIFeatureMatrix(t *testing.T) {
	cases := []struct {
		term     Termination
		anyTime  bool
		restores bool
	}{
		{SigjmpTermination{}, true, true},
		{PeriodicCheckTermination{}, false, true},
		{TryCatchTermination{}, true, false},
	}
	for _, c := range cases {
		if c.term.AnyTime() != c.anyTime {
			t.Errorf("%s: AnyTime = %v, want %v", c.term.Name(), c.term.AnyTime(), c.anyTime)
		}
		if c.term.RestoresSignalMask() != c.restores {
			t.Errorf("%s: RestoresSignalMask = %v, want %v", c.term.Name(), c.term.RestoresSignalMask(), c.restores)
		}
		if c.term.Name() == "" {
			t.Error("empty mechanism name")
		}
	}
}

// The overhead probes fire at every protocol point with sane ordering:
// release <= mandatory start <= signal loop <= mandatory block <= optional
// start <= windup start.
func TestProbeOrdering(t *testing.T) {
	k := newSim(t, machine.NoLoad)
	type jobProbe struct {
		release, mandStart, sigStart, sigEnd, block, opt0, windup engine.Time
	}
	probes := make(map[int]*jobProbe)
	get := func(job int) *jobProbe {
		if probes[job] == nil {
			probes[job] = &jobProbe{}
		}
		return probes[job]
	}
	pr := Probes{
		OnRelease: func(job int, release, start engine.Time) {
			get(job).release, get(job).mandStart = release, start
		},
		OnSignalLoop: func(job int, start, end engine.Time) {
			get(job).sigStart, get(job).sigEnd = start, end
		},
		OnMandatoryBlock: func(job int, at engine.Time) { get(job).block = at },
		OnOptionalStart: func(job, k int, at engine.Time) {
			if k == 0 {
				get(job).opt0 = at
			}
		},
		OnWindupStart: func(job int, od, start engine.Time) { get(job).windup = start },
	}
	p := newProcess(t, k, paperTask(4, time.Second), 2, nil, pr, App{})
	p.Start()
	k.Run()
	for job, jp := range probes {
		seq := []engine.Time{jp.release, jp.mandStart, jp.sigStart, jp.sigEnd, jp.block, jp.opt0, jp.windup}
		for i := 1; i < len(seq); i++ {
			if seq[i] < seq[i-1] {
				t.Fatalf("job %d: probe %d out of order: %v", job, i, seq)
			}
		}
		// Δm must be positive: waking from clock_nanosleep costs time.
		if jp.mandStart == jp.release {
			t.Fatalf("job %d: zero release overhead", job)
		}
	}
}

// Application callbacks fire with the right progress values.
func TestAppCallbacks(t *testing.T) {
	k := newSim(t, machine.NoLoad)
	var mandatory, windup int
	var optionalCalls int
	app := App{
		OnMandatory: func(job int) { mandatory++ },
		OnOptional: func(job, part int, progress float64) {
			optionalCalls++
			if progress <= 0 || progress > 1 {
				t.Errorf("progress %v out of (0,1]", progress)
			}
		},
		OnWindup: func(job int, progress []float64) {
			windup++
			if len(progress) != 2 {
				t.Errorf("progress vector length %d", len(progress))
			}
		},
	}
	p := newProcess(t, k, paperTask(2, time.Second), 3, nil, Probes{}, app)
	p.Start()
	k.Run()
	if mandatory != 3 || windup != 3 || optionalCalls != 6 {
		t.Fatalf("callbacks mand=%d windup=%d opt=%d", mandatory, windup, optionalCalls)
	}
}

func TestConfigValidation(t *testing.T) {
	k := newSim(t, machine.NoLoad)
	tk := paperTask(2, time.Second)
	cpus, _ := assign.HWThreads(k.Machine().Topology(), assign.OneByOne, 2)
	base := Config{
		Task: tk, MandatoryPriority: 90, MandatoryCPU: 0,
		OptionalCPUs: cpus, OptionalDeadline: ms(75), Jobs: 1,
	}
	bad := []func(*Config){
		func(c *Config) { c.MandatoryPriority = 100 },
		func(c *Config) { c.MandatoryPriority = 10 },
		func(c *Config) { c.OptionalCPUs = cpus[:1] },
		func(c *Config) { c.OptionalDeadline = 0 },
		func(c *Config) { c.OptionalDeadline = ms(1000) },
		func(c *Config) { c.Jobs = 0 },
		func(c *Config) { c.Task.Period = 0 },
		func(c *Config) { c.OptionalCPUs = []machine.HWThread{5, 1} },
	}
	for i, mutate := range bad {
		cfg := base
		cfg.OptionalCPUs = append([]machine.HWThread(nil), cpus...)
		mutate(&cfg)
		if _, err := NewProcess(k, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := NewProcess(k, base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// Theorem 1 in execution: optional parts never delay the mandatory or
// wind-up parts; wind-up timing is identical with 1 vs many optional parts.
func TestTheorem1NoOptionalInterference(t *testing.T) {
	windupStart := func(np int) time.Duration {
		k := newSim(t, machine.NoLoad)
		var start time.Duration
		probes := Probes{OnWindupStart: func(job int, od, s engine.Time) {
			if job == 0 {
				start = s.Duration()
			}
		}}
		p := newProcess(t, k, paperTask(np, time.Second), 1, nil, probes, App{})
		p.Start()
		k.Run()
		return start
	}
	one := windupStart(1)
	many := windupStart(8)
	// The wind-up start differs only by ending-overhead (more parts to
	// collect), never by optional-part interference: both must be right at
	// the 70ms optional deadline, within a few ms of protocol overhead.
	if one < ms(70) || many < ms(70) {
		t.Fatalf("wind-up before optional deadline: one=%v many=%v", one, many)
	}
	if many-one > ms(10) {
		t.Fatalf("np=8 delayed wind-up by %v vs np=1: optional parts must not interfere", many-one)
	}
}

// Determinism: identical configurations give identical schedules.
func TestProcessDeterministic(t *testing.T) {
	run := func() []task.JobRecord {
		k := newSim(t, machine.CPUMemoryLoad)
		p := newProcess(t, k, paperTask(6, time.Second), 4, nil, Probes{}, App{})
		p.Start()
		k.Run()
		return p.Records()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("job counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Finish != b[i].Finish || a[i].WindupStart != b[i].WindupStart {
			t.Fatalf("job %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// The paper's conclusion: the One-by-One policy "has the potential to
// improve QoS compared with other assignment policies, because it assigns
// parallel optional parts to cores in a uniform manner, thus reducing the
// contention of hardware resources". With no background load and np small
// enough that One-by-One gives each part its own core, its parts make more
// progress by the optional deadline than All-by-All's SMT-packed parts.
func TestQoSOneByOneBeatsAllByAllNoLoad(t *testing.T) {
	qosUnder := func(pol assign.Policy) float64 {
		model := machine.DefaultCostModel()
		model.JitterFrac = 0
		m, err := machine.New(machine.Topology{Cores: 8, ThreadsPerCore: 4}, machine.NoLoad, model, 3)
		if err != nil {
			t.Fatal(err)
		}
		k := kernel.New(engine.New(), m)
		tk := paperTask(8, ms(100)) // parts longer than the window: progress measures throughput
		cpus, err := assign.HWThreads(m.Topology(), pol, 8)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProcess(k, Config{
			Task: tk, MandatoryPriority: 90, MandatoryCPU: 0,
			OptionalCPUs: cpus, OptionalDeadline: ms(70), Jobs: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		k.Run()
		return p.Stats().MeanQoS
	}
	one := qosUnder(assign.OneByOne)
	all := qosUnder(assign.AllByAll)
	if one <= all {
		t.Fatalf("One-by-One QoS %v should beat All-by-All %v without load", one, all)
	}
}

// Under a full background load the relationship flips: packing parts
// displaces the load from their SMT siblings, so All-by-All's parts see
// less contention than One-by-One's (which sit next to three background
// hogs each). The paper never measures QoS under load; this documents what
// its own contention argument implies.
func TestQoSAllByAllBeatsOneByOneUnderLoad(t *testing.T) {
	qosUnder := func(pol assign.Policy) float64 {
		model := machine.DefaultCostModel()
		model.JitterFrac = 0
		m, err := machine.New(machine.Topology{Cores: 8, ThreadsPerCore: 4}, machine.CPUMemoryLoad, model, 3)
		if err != nil {
			t.Fatal(err)
		}
		k := kernel.New(engine.New(), m)
		tk := paperTask(8, ms(100))
		cpus, err := assign.HWThreads(m.Topology(), pol, 8)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProcess(k, Config{
			Task: tk, MandatoryPriority: 90, MandatoryCPU: 0,
			OptionalCPUs: cpus, OptionalDeadline: ms(70), Jobs: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		k.Run()
		return p.Stats().MeanQoS
	}
	one := qosUnder(assign.OneByOne)
	all := qosUnder(assign.AllByAll)
	if all <= one {
		t.Fatalf("All-by-All QoS %v should beat One-by-One %v under full load", all, one)
	}
}
