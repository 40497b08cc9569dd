package sched

import (
	"strings"
	"testing"
	"time"

	"rtseed/internal/analysis"
	"rtseed/internal/assign"
	"rtseed/internal/core"
	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/partition"
	"rtseed/internal/task"
)

func ms(d int) time.Duration { return time.Duration(d) * time.Millisecond }

func newSim(t testing.TB) *kernel.Kernel {
	t.Helper()
	model := machine.DefaultCostModel()
	model.JitterFrac = 0
	m, err := machine.New(machine.Topology{Cores: 8, ThreadsPerCore: 4}, machine.NoLoad, model, 3)
	if err != nil {
		t.Fatal(err)
	}
	return kernel.New(engine.New(), m)
}

// actions is a body that issues acts in order, then exits.
func actions(acts ...kernel.Next) kernel.Body {
	i := 0
	return kernel.StepFunc(func(*kernel.TCB, kernel.Resume) kernel.Next {
		if i == len(acts) {
			return kernel.Done()
		}
		i++
		return acts[i-1]
	})
}

func TestGeneralProcessRunsJobs(t *testing.T) {
	k := newSim(t)
	tk := task.Uniform("g", ms(20), ms(20), 0, 0, ms(100))
	g, err := NewGeneralProcess(k, tk, 90, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	k.Run()
	stats := g.Stats()
	if stats.Jobs != 3 || stats.DeadlineMisses != 0 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestGeneralProcessValidation(t *testing.T) {
	k := newSim(t)
	tk := task.Uniform("g", ms(20), ms(20), 0, 0, ms(100))
	if _, err := NewGeneralProcess(k, tk, 90, 0, 0); err == nil {
		t.Fatal("zero jobs accepted")
	}
	if _, err := NewGeneralProcess(k, task.Task{}, 90, 0, 1); err == nil {
		t.Fatal("invalid task accepted")
	}
}

// Fig. 3: under general scheduling, R(t) starts at m+w and drains in one
// block. Under semi-fixed-priority scheduling the mandatory part drains m,
// the task sleeps until OD, then the wind-up part drains w.
func TestFig3Shapes(t *testing.T) {
	// General scheduling trace.
	kg := newSim(t)
	rec := NewRecorder(kg)
	tk := task.Uniform("tau", ms(20), ms(20), 0, 0, ms(100))
	g, err := NewGeneralProcess(kg, tk, 90, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	kg.Run()
	gen := rec.RemainingTime(g.Thread(), engine.At(0), engine.At(ms(100)), tk.WCET())
	if len(gen) < 3 {
		t.Fatalf("trace too short: %v", gen)
	}
	if gen[0].R != ms(40) {
		t.Fatalf("general R(0) = %v, want m+w = 40ms", gen[0].R)
	}
	last := gen[len(gen)-1]
	if last.R != 0 {
		t.Fatalf("general trace must drain to 0, got %v", last.R)
	}
	// All execution is contiguous: drained by ~m+w+overhead.
	if last.T > ms(45) {
		t.Fatalf("general drained at %v, want ~40ms", last.T)
	}

	// Semi-fixed-priority trace: mandatory and wind-up phases of an
	// RT-Seed process with an overrunning optional part.
	ks := newSim(t)
	recS := NewRecorder(ks)
	stk := task.Uniform("tau", ms(20), ms(20), time.Second, 1, ms(100))
	cpus, _ := assign.HWThreads(ks.Machine().Topology(), assign.OneByOne, 1)
	var odAbs, windupStart engine.Time
	p, err := core.NewProcess(ks, core.Config{
		Task: stk, MandatoryPriority: 90, MandatoryCPU: 0,
		OptionalCPUs: cpus, OptionalDeadline: ms(70), Jobs: 1,
		Probes: core.Probes{OnWindupStart: func(job int, od, s engine.Time) {
			odAbs, windupStart = od, s
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	ks.Run()
	// Mandatory phase: R drains from m to 0 before OD.
	mand := recS.RemainingTime(p.MandatoryThread(), engine.At(0), odAbs, stk.Mandatory)
	if mand[0].R != ms(20) {
		t.Fatalf("semi-fixed mandatory R(0) = %v, want 20ms", mand[0].R)
	}
	if mand[len(mand)-1].R != 0 {
		t.Fatalf("mandatory phase must drain before OD: %v", mand)
	}
	if mand[len(mand)-1].T > ms(25) {
		t.Fatalf("mandatory drained at %v, want ~20ms", mand[len(mand)-1].T)
	}
	// Wind-up phase: R drains from w to 0 starting at OD.
	wind := recS.RemainingTime(p.MandatoryThread(), windupStart, engine.At(ms(100)), stk.Windup)
	if wind[len(wind)-1].R != 0 {
		t.Fatalf("wind-up must drain to 0: %v", wind)
	}
	if windupStart.Duration() < ms(70) {
		t.Fatalf("wind-up started at %v, before OD", windupStart)
	}
}

func TestRecorderExecuted(t *testing.T) {
	k := newSim(t)
	rec := NewRecorder(k)
	th := k.MustNewBodyThread(kernel.ThreadConfig{Name: "t", Priority: 50, CPU: 0},
		actions(kernel.Compute(ms(10)), kernel.Sleep(ms(10)), kernel.Compute(ms(10))))
	th.Start()
	k.Run()
	total := rec.Executed(th, engine.At(0), engine.At(time.Hour))
	if total < ms(20) || total > ms(21) {
		t.Fatalf("executed %v, want ~20ms", total)
	}
	segs := rec.Segments(th)
	if len(segs) != 2 {
		t.Fatalf("%d segments, want 2 (split by the sleep)", len(segs))
	}
}

func TestPRMWPSystemMultiTask(t *testing.T) {
	k := newSim(t)
	set := task.MustNewSet(
		task.Uniform("fast", ms(5), ms(5), ms(500), 2, ms(50)),
		task.Uniform("slow", ms(10), ms(10), ms(500), 2, ms(100)),
	)
	// Worst-fit spreads the two tasks over two processors and All-by-All
	// keeps each task's optional parts on its own core, so the tasks'
	// optional threads never share a hardware thread (see
	// TestCrossTaskOptionalStarvation for what sharing does).
	sys, err := NewPRMWP(k, PRMWPConfig{
		Set:            set,
		Horizon:        ms(300),
		Policy:         assign.AllByAll,
		Heuristic:      partition.WorstFit,
		OverheadMargin: ms(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	k.Run()
	stats := sys.Stats()
	if stats["fast"].Jobs != 6 {
		t.Fatalf("fast ran %d jobs, want 6", stats["fast"].Jobs)
	}
	if stats["slow"].Jobs != 3 {
		t.Fatalf("slow ran %d jobs, want 3", stats["slow"].Jobs)
	}
	for name, st := range stats {
		if st.DeadlineMisses != 0 {
			t.Fatalf("%s missed %d deadlines", name, st.DeadlineMisses)
		}
		if st.TerminatedParts == 0 {
			t.Fatalf("%s: overrunning parts should be terminated", name)
		}
	}
}

// Reproduction finding (outside the paper's n=1 evaluation): RT-Seed's
// protocol gates the wind-up on a wake-up from every parallel optional
// thread (Fig. 6). A POSIX timer's SIGALRM only runs its handler when the
// target thread is scheduled — so when two tasks' optional threads share a
// hardware thread, the lower-priority task's optional threads are starved by
// the higher-priority task's overrunning optional parts, its termination
// acknowledgements arrive late, and its wind-up part can slip past the
// deadline even though the RMWP analysis admits the set. The paper's
// evaluation (one task, fewer tasks than processors, §V-A) never exercises
// this coupling.
func TestCrossTaskOptionalStarvation(t *testing.T) {
	k := newSim(t)
	set := task.MustNewSet(
		task.Uniform("fast", ms(5), ms(5), ms(500), 2, ms(50)),
		task.Uniform("slow", ms(10), ms(10), ms(500), 2, ms(100)),
	)
	// First-fit packs both tasks on processor 0; One-by-One overlays both
	// tasks' optional parts on hardware threads 0 and 1.
	sys, err := NewPRMWP(k, PRMWPConfig{
		Set:            set,
		Horizon:        ms(300),
		Policy:         assign.OneByOne,
		Heuristic:      partition.FirstFit,
		OverheadMargin: ms(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	k.Run()
	stats := sys.Stats()
	if stats["fast"].DeadlineMisses != 0 {
		t.Fatalf("fast (highest priority) missed %d deadlines", stats["fast"].DeadlineMisses)
	}
	if stats["slow"].DeadlineMisses == 0 {
		t.Fatal("expected the starvation coupling to delay slow's wind-up past its deadline; " +
			"if this now passes, the middleware changed behaviour — update the docs")
	}
}

func TestPRMWPValidation(t *testing.T) {
	k := newSim(t)
	set := task.MustNewSet(task.Uniform("a", ms(5), ms(5), 0, 0, ms(50)))
	if _, err := NewPRMWP(k, PRMWPConfig{Set: nil, Horizon: ms(100), Policy: assign.OneByOne}); err == nil {
		t.Fatal("nil set accepted")
	}
	if _, err := NewPRMWP(k, PRMWPConfig{Set: set, Horizon: 0, Policy: assign.OneByOne}); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := NewPRMWP(k, PRMWPConfig{Set: set, Horizon: ms(100), Policy: assign.Policy(0)}); err == nil {
		t.Fatal("invalid policy accepted")
	}
	if _, err := NewPRMWP(k, PRMWPConfig{Set: set, Horizon: ms(100), Policy: assign.OneByOne, OverheadMargin: time.Hour}); err == nil {
		t.Fatal("margin larger than OD accepted")
	}
}

// RM-US (footnote 1): a task whose utilization exceeds M/(3M-2) takes the
// reserved HPQ priority 99 and still runs correctly.
func TestPRMWPWithRMUS(t *testing.T) {
	k := newSim(t)
	// On 8 cores the RM-US threshold is 8/22 ~ 0.364; "heavy" (U=0.6)
	// exceeds it, "light" (U=0.2) does not.
	set := task.MustNewSet(
		task.Uniform("heavy", ms(30), ms(30), ms(500), 2, ms(100)),
		task.Uniform("light", ms(10), ms(10), 0, 0, ms(100)),
	)
	sys, err := NewPRMWP(k, PRMWPConfig{
		Set:            set,
		Horizon:        ms(300),
		Policy:         assign.AllByAll,
		Heuristic:      partition.WorstFit,
		OverheadMargin: ms(3),
		UseRMUS:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Processes["heavy"].MandatoryThread().Priority(); got != core.HPQPriority {
		t.Fatalf("heavy task priority %d, want HPQ %d", got, core.HPQPriority)
	}
	if got := sys.Processes["light"].MandatoryThread().Priority(); got == core.HPQPriority {
		t.Fatal("light task must not take the HPQ slot")
	}
	sys.Start()
	k.Run()
	for name, st := range sys.Stats() {
		if st.DeadlineMisses != 0 {
			t.Fatalf("%s missed %d deadlines", name, st.DeadlineMisses)
		}
	}
}

// Two RM-US-heavy tasks cannot share one processor's HPQ slot.
func TestPRMWPRMUSOverflow(t *testing.T) {
	k := newSim(t)
	// Both tasks exceed the RM-US threshold (8/22 ~ 0.364) yet are jointly
	// RMWP-admissible on one processor, so first-fit packs them together
	// and the HPQ overflows.
	set := task.MustNewSet(
		task.Uniform("h1", ms(2), ms(2), 0, 0, ms(10)),
		task.Uniform("h2", ms(39), ms(2), 0, 0, ms(100)),
	)
	_, err := NewPRMWP(k, PRMWPConfig{
		Set:       set,
		Horizon:   ms(100),
		Policy:    assign.OneByOne,
		Heuristic: partition.FirstFit, // packs both on processor 0
		UseRMUS:   true,
	})
	if err == nil {
		t.Fatal("two HPQ tasks on one processor accepted")
	}
}

func TestGanttRendersSchedule(t *testing.T) {
	k := newSim(t)
	rec := NewRecorder(k)
	// Two threads on one CPU: hi runs [0,10ms), lo runs [10ms,20ms).
	hi := k.MustNewBodyThread(kernel.ThreadConfig{Name: "hi", Priority: 60, CPU: 0}, actions(kernel.Compute(ms(10))))
	lo := k.MustNewBodyThread(kernel.ThreadConfig{Name: "lo", Priority: 50, CPU: 0}, actions(kernel.Compute(ms(10))))
	hi.Start()
	lo.Start()
	k.Run()
	out := Gantt(rec, []*kernel.Thread{hi, lo}, engine.At(0), engine.At(ms(20)), 20)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("gantt lines:\n%s", out)
	}
	hiRow := lines[1][strings.Index(lines[1], " ")+1:]
	loRow := lines[2][strings.Index(lines[2], " ")+1:]
	// hi occupies the first half, lo the second.
	if !strings.HasPrefix(hiRow, "##") || !strings.HasSuffix(hiRow, "..") {
		t.Fatalf("hi row %q", hiRow)
	}
	if !strings.HasPrefix(loRow, "..") || !strings.HasSuffix(loRow, "##") {
		t.Fatalf("lo row %q", loRow)
	}
	if Gantt(rec, nil, engine.At(10), engine.At(10), 5) != "" {
		t.Fatal("empty span should render nothing")
	}
}

// Middleware-level G-RMWP: mandatory threads migrate to the least-loaded
// processor at every release. The §IV-B trade-off is measurable: migrations
// happen (unlike P-RMWP's zero) and each one costs cross-core overhead.
func TestGRMWPMigratesAndRuns(t *testing.T) {
	k := newSim(t)
	set := task.MustNewSet(
		task.Uniform("a", ms(10), ms(5), 0, 0, ms(50)),
		task.Uniform("b", ms(10), ms(5), 0, 0, ms(60)),
		task.Uniform("c", ms(10), ms(5), 0, 0, ms(80)),
	)
	sys, err := NewGRMWP(k, GRMWPConfig{
		Set:            set,
		Horizon:        600 * time.Millisecond,
		Policy:         assign.OneByOne,
		Processors:     2,
		OverheadMargin: ms(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	k.Run()
	stats := sys.Stats()
	totalJobs := 0
	for name, st := range stats {
		if st.Jobs == 0 {
			t.Fatalf("%s ran no jobs", name)
		}
		totalJobs += st.Jobs
	}
	if sys.Migrations() == 0 {
		t.Fatal("three tasks balancing over two processors should migrate")
	}
	if sys.Migrations() > totalJobs {
		t.Fatalf("at most one migration per release: %d migrations, %d jobs",
			sys.Migrations(), totalJobs)
	}
}

func TestGRMWPValidation(t *testing.T) {
	k := newSim(t)
	set := task.MustNewSet(task.Uniform("a", ms(5), ms(5), 0, 0, ms(50)))
	if _, err := NewGRMWP(k, GRMWPConfig{Set: nil, Horizon: ms(100), Policy: assign.OneByOne}); err == nil {
		t.Fatal("nil set accepted")
	}
	if _, err := NewGRMWP(k, GRMWPConfig{Set: set, Horizon: 0, Policy: assign.OneByOne}); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := NewGRMWP(k, GRMWPConfig{Set: set, Horizon: ms(100), Policy: assign.Policy(9)}); err == nil {
		t.Fatal("invalid policy accepted")
	}
}

// A negative overhead margin would push each optional deadline past the one
// the analysis admitted, so both runners reject it, down to one nanosecond.
func TestNegativeOverheadMarginRejected(t *testing.T) {
	set := task.MustNewSet(task.Uniform("a", ms(5), ms(5), 0, 0, ms(50)))
	if _, err := NewPRMWP(newSim(t), PRMWPConfig{Set: set, Horizon: ms(100), Policy: assign.OneByOne, OverheadMargin: -1}); err == nil {
		t.Error("P-RMWP accepted a -1ns overhead margin")
	}
	if _, err := NewGRMWP(newSim(t), GRMWPConfig{Set: set, Horizon: ms(100), Policy: assign.OneByOne, OverheadMargin: -1}); err == nil {
		t.Error("G-RMWP accepted a -1ns overhead margin")
	}
	if _, err := NewPRMWP(newSim(t), PRMWPConfig{Set: set, Horizon: ms(100), Policy: assign.OneByOne}); err != nil {
		t.Errorf("P-RMWP rejected a zero margin: %v", err)
	}
}

// The migration overhead shows up in Δm: the same task set under G-RMWP has
// a larger mean release-to-mandatory-start latency than under P-RMWP.
func TestGRMWPReleaseLatencyExceedsPRMWP(t *testing.T) {
	set := task.MustNewSet(
		task.Uniform("a", ms(10), ms(5), 0, 0, ms(50)),
		task.Uniform("b", ms(10), ms(5), 0, 0, ms(60)),
		task.Uniform("c", ms(10), ms(5), 0, 0, ms(80)),
	)
	meanStartLag := func(stats map[string]task.Stats, recsOf func(name string) []task.JobRecord) time.Duration {
		var sum time.Duration
		n := 0
		for name := range stats {
			for _, rec := range recsOf(name) {
				sum += rec.MandatoryStart - rec.Release
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / time.Duration(n)
	}

	kg := newSim(t)
	g, err := NewGRMWP(kg, GRMWPConfig{
		Set: set, Horizon: 600 * time.Millisecond, Policy: assign.OneByOne,
		Processors: 2, OverheadMargin: ms(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	kg.Run()
	gLag := meanStartLag(g.Stats(), func(name string) []task.JobRecord { return g.Processes[name].Records() })

	kp := newSim(t)
	p, err := NewPRMWP(kp, PRMWPConfig{
		Set: set, Horizon: 600 * time.Millisecond, Policy: assign.OneByOne,
		Heuristic: partition.WorstFit, OverheadMargin: ms(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	kp.Run()
	pLag := meanStartLag(p.Stats(), func(name string) []task.JobRecord { return p.Processes[name].Records() })

	if gLag <= pLag {
		t.Fatalf("G-RMWP release latency %v should exceed P-RMWP %v (migration overhead)", gLag, pLag)
	}
}

// The independent validator finds no violations in a standard P-RMWP run —
// overrunning, completing and discarded parts alike.
func TestValidateCleanRun(t *testing.T) {
	for _, optLen := range []time.Duration{time.Second, ms(5)} {
		k := newSim(t)
		rec := NewRecorder(k)
		tk := task.Uniform("v", ms(20), ms(20), optLen, 4, ms(100))
		cpus, _ := assign.HWThreads(k.Machine().Topology(), assign.OneByOne, 4)
		p, err := core.NewProcess(k, core.Config{
			Task: tk, MandatoryPriority: 90, MandatoryCPU: 0,
			OptionalCPUs: cpus, OptionalDeadline: ms(70), Jobs: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		k.Run()
		MustValidate(t, rec, p, tk, ms(70))
	}
}

// The validator catches a genuinely broken schedule: the try-catch
// mechanism's lost timer makes optional parts run to completion and the
// next job overlap, which rule `ordering` and the part records expose as a
// deadline pathology — but crucially the run still satisfies the structural
// rules, so Validate stays quiet; instead, corrupt a record artificially.
func TestValidateDetectsCorruption(t *testing.T) {
	k := newSim(t)
	rec := NewRecorder(k)
	tk := task.Uniform("v", ms(20), ms(20), time.Second, 2, ms(100))
	cpus, _ := assign.HWThreads(k.Machine().Topology(), assign.OneByOne, 2)
	p, err := core.NewProcess(k, core.Config{
		Task: tk, MandatoryPriority: 90, MandatoryCPU: 0,
		OptionalCPUs: cpus, OptionalDeadline: ms(70), Jobs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	k.Run()
	// Lie about the optional deadline: claim it was later than it was, so
	// the recorded wind-up starts "too early".
	vs := Validate(rec, p, tk, ms(95))
	if len(vs) == 0 {
		t.Fatal("validator missed the windup-after-od breach")
	}
	found := false
	for _, v := range vs {
		if v.Rule == "windup-after-od" {
			found = true
		}
		if v.String() == "" {
			t.Fatal("empty violation string")
		}
	}
	if !found {
		t.Fatalf("wrong rules: %v", vs)
	}
}

// Cross-validation of theory against execution: for random RMWP-schedulable
// task sets, every job measured on the simulator meets its deadline, and
// every task's wind-up completes within the analysis' response-time bound
// plus the overhead margin. This ties analysis.RMWP to what the middleware
// actually does.
func TestAnalysisBoundsHoldInExecution(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		set, err := task.Generate(task.GenConfig{
			N:                3,
			TotalUtilization: 0.4,
			MinPeriod:        80 * time.Millisecond,
			MaxPeriod:        400 * time.Millisecond,
			Seed:             seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := analysis.RMWP(set); err != nil {
			continue // only schedulable sets are in scope
		}
		k := newSim(t)
		margin := 10 * time.Millisecond
		sys, err := NewPRMWP(k, PRMWPConfig{
			Set:            set,
			Horizon:        time.Second,
			Policy:         assign.AllByAll,
			Heuristic:      partition.WorstFit,
			OverheadMargin: margin,
		})
		if err != nil {
			// A margin can exhaust a tight optional deadline; skip those.
			continue
		}
		sys.Start()
		k.Run()
		for name, p := range sys.Processes {
			for _, rec := range p.Records() {
				if !rec.Met() {
					t.Fatalf("seed %d: task %s job %d missed (%v > %v) despite passing analysis",
						seed, name, rec.Job, rec.Finish, rec.Deadline)
				}
			}
		}
	}
}
