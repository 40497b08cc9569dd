package rtseed

// One benchmark per table and figure of the paper's evaluation (§V), plus
// ablations for the design choices discussed in §IV. Each Fig. 10-13 bench
// runs the §V-A experiment with b.N jobs and reports the measured mean
// overhead as the custom metric "delta-ns/job"; who-beats-whom and the
// curve shapes are what should match the paper, not absolute nanoseconds
// (the substrate is a simulator — see DESIGN.md §2).
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// or a single figure with e.g. -bench=Fig13.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"rtseed/internal/analysis"
	"rtseed/internal/assign"
	"rtseed/internal/core"
	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/overhead"
	"rtseed/internal/partition"
	"rtseed/internal/sched"
	"rtseed/internal/task"
	"rtseed/internal/trading"
)

// benchNP is the operating point used for the per-figure benchmarks; the
// full np sweep lives in cmd/rtseed-overhead.
const benchNP = 57

func benchOverhead(b *testing.B, kind overhead.Kind, np int) {
	for _, load := range machine.Loads() {
		for _, pol := range assign.Policies() {
			name := fmt.Sprintf("%s/np=%d/%s", load, np, pol)
			b.Run(name, func(b *testing.B) {
				m, err := overhead.Run(overhead.Config{
					Load:     load,
					Policy:   pol,
					NumParts: np,
					Jobs:     b.N,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(m.Mean(kind)), "delta-ns/job")
			})
		}
	}
}

// BenchmarkFig10BeginMandatory regenerates Fig. 10: the overhead between
// the release time and the beginning of the mandatory part.
func BenchmarkFig10BeginMandatory(b *testing.B) {
	benchOverhead(b, overhead.DeltaM, benchNP)
}

// BenchmarkFig11SwitchToOptional regenerates Fig. 11: the overhead of
// switching the mandatory thread to the optional thread. The no-load series
// additionally runs np=228 to expose the sharp rise at full occupancy.
func BenchmarkFig11SwitchToOptional(b *testing.B) {
	benchOverhead(b, overhead.DeltaS, benchNP)
	b.Run("No load/np=228/One by One", func(b *testing.B) {
		m, err := overhead.Run(overhead.Config{
			Load:     machine.NoLoad,
			Policy:   assign.OneByOne,
			NumParts: 228,
			Jobs:     b.N,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(m.Mean(overhead.DeltaS)), "delta-ns/job")
	})
}

// BenchmarkFig12BeginOptional regenerates Fig. 12: the overhead of the
// pthread_cond_signal loop waking all parallel optional threads.
func BenchmarkFig12BeginOptional(b *testing.B) {
	benchOverhead(b, overhead.DeltaB, benchNP)
}

// BenchmarkFig13EndOptional regenerates Fig. 13: the overhead of ending the
// parallel optional parts, the largest of the four overheads.
func BenchmarkFig13EndOptional(b *testing.B) {
	benchOverhead(b, overhead.DeltaE, benchNP)
}

// BenchmarkFig3RemainingTimeTrace regenerates Fig. 3: one job under general
// scheduling versus semi-fixed-priority scheduling, reporting the wind-up
// start offset that distinguishes the two schedules.
func BenchmarkFig3RemainingTimeTrace(b *testing.B) {
	b.Run("general", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mach := machine.MustNew(machine.XeonPhi3120A(), machine.NoLoad, noJitter(), 1)
			k := kernel.New(engine.New(), mach)
			tk := task.Uniform("tau", 250*time.Millisecond, 250*time.Millisecond, 0, 0, time.Second)
			g, err := sched.NewGeneralProcess(k, tk, 90, 0, 1)
			if err != nil {
				b.Fatal(err)
			}
			g.Start()
			k.Run()
			rec := g.Records()[0]
			// General scheduling: m and w run back to back from release.
			b.ReportMetric(float64(rec.Finish), "finish-ns")
		}
	})
	b.Run("semi-fixed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mach := machine.MustNew(machine.XeonPhi3120A(), machine.NoLoad, noJitter(), 1)
			k := kernel.New(engine.New(), mach)
			tk := task.Uniform("tau", 250*time.Millisecond, 150*time.Millisecond, 2*time.Second, 1, time.Second)
			cpus, err := assign.HWThreads(mach.Topology(), assign.OneByOne, 1)
			if err != nil {
				b.Fatal(err)
			}
			p, err := core.NewProcess(k, core.Config{
				Task: tk, MandatoryPriority: 90, MandatoryCPU: 0,
				OptionalCPUs: cpus, OptionalDeadline: 750 * time.Millisecond, Jobs: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			p.Start()
			k.Run()
			rec := p.Records()[0]
			// Semi-fixed: the wind-up waits for the optional deadline.
			b.ReportMetric(float64(rec.WindupStart), "windup-start-ns")
		}
	})
}

// BenchmarkTableITermination regenerates Table I behaviourally: per
// mechanism, the wind-up start lag behind the optional deadline
// ("overshoot-ns/job") and the deadline misses over the run. sigjmp cuts at
// the deadline every job; periodic check overshoots by its check period;
// try-catch loses the timer after the first job and starts missing.
func BenchmarkTableITermination(b *testing.B) {
	mechanisms := []core.Termination{
		core.SigjmpTermination{},
		core.PeriodicCheckTermination{Period: 7 * time.Millisecond},
		core.TryCatchTermination{},
	}
	for _, mech := range mechanisms {
		mech := mech
		b.Run(mech.Name(), func(b *testing.B) {
			mach := machine.MustNew(machine.Topology{Cores: 8, ThreadsPerCore: 4},
				machine.NoLoad, noJitter(), 3)
			k := kernel.New(engine.New(), mach)
			tk := task.Uniform("t", 20*time.Millisecond, 20*time.Millisecond,
				time.Second, 2, 100*time.Millisecond)
			cpus, err := assign.HWThreads(mach.Topology(), assign.OneByOne, 2)
			if err != nil {
				b.Fatal(err)
			}
			var lag time.Duration
			var lagJobs int
			p, err := core.NewProcess(k, core.Config{
				Task: tk, MandatoryPriority: 90, MandatoryCPU: 0,
				OptionalCPUs: cpus, OptionalDeadline: 70 * time.Millisecond,
				Jobs: b.N, Termination: mech,
				Probes: core.Probes{OnWindupStart: func(job int, od, start engine.Time) {
					lag += start.Sub(od)
					lagJobs++
				}},
			})
			if err != nil {
				b.Fatal(err)
			}
			p.Start()
			k.RunUntil(engine.At(time.Duration(b.N+2) * 10 * time.Second))
			if lagJobs > 0 {
				b.ReportMetric(float64(lag)/float64(lagJobs), "overshoot-ns/job")
			}
			b.ReportMetric(float64(p.Stats().DeadlineMisses), "misses")
		})
	}
}

// BenchmarkAblationPartitionedVsGlobal quantifies the §IV-B design choice:
// partitioned scheduling (P-RMWP) never migrates, while an idealized global
// RMWP migrates constantly under multi-task interference.
func BenchmarkAblationPartitionedVsGlobal(b *testing.B) {
	set := task.MustNewSet(
		task.Uniform("a", 10*time.Millisecond, 5*time.Millisecond, 0, 0, 40*time.Millisecond),
		task.Uniform("b", 10*time.Millisecond, 5*time.Millisecond, 0, 0, 50*time.Millisecond),
		task.Uniform("c", 10*time.Millisecond, 5*time.Millisecond, 0, 0, 60*time.Millisecond),
	)
	b.Run("global", func(b *testing.B) {
		var migrations, jobs int
		for i := 0; i < b.N; i++ {
			res, err := sched.SimulateGRMWP(set, 2, 600*time.Millisecond, time.Millisecond, 100*time.Microsecond)
			if err != nil {
				b.Fatal(err)
			}
			migrations += res.Migrations
			jobs += res.Jobs
		}
		b.ReportMetric(float64(migrations)/float64(jobs), "migrations/job")
	})
	// Partitioned tasks never migrate: 0 by construction.
	b.Run("partitioned", func(b *testing.B) {
		b.ReportMetric(0, "migrations/job")
	})
}

// BenchmarkAblationMiddlewareGlobal measures the §IV-B argument on the real
// middleware: the same task set under P-RMWP (no migration) and under
// middleware-level G-RMWP (least-loaded migration at every release),
// reporting mean release→mandatory-start latency and migrations per job.
// The gap is dramatic (microseconds vs milliseconds) and mostly NOT the
// migration transfer cost: a middleware thread must first get CPU time on
// its old, contended processor just to *decide* to leave, so its release
// latency inherits that processor's queueing — the concrete form of the
// paper's "middleware sits atop an operating system that may not expose
// fine-grained scheduling control".
func BenchmarkAblationMiddlewareGlobal(b *testing.B) {
	set := task.MustNewSet(
		task.Uniform("a", 10*time.Millisecond, 5*time.Millisecond, 0, 0, 50*time.Millisecond),
		task.Uniform("b", 10*time.Millisecond, 5*time.Millisecond, 0, 0, 60*time.Millisecond),
		task.Uniform("c", 10*time.Millisecond, 5*time.Millisecond, 0, 0, 80*time.Millisecond),
	)
	horizon := time.Duration(b.N+1) * 60 * time.Millisecond
	if horizon > 30*time.Second {
		horizon = 30 * time.Second
	}
	lagOf := func(records [][]task.JobRecord) (time.Duration, int) {
		var sum time.Duration
		n := 0
		for _, recs := range records {
			for _, rec := range recs {
				sum += rec.MandatoryStart - rec.Release
				n++
			}
		}
		if n == 0 {
			return 0, 0
		}
		return sum / time.Duration(n), n
	}
	b.Run("prmwp", func(b *testing.B) {
		mach := machine.MustNew(machine.Topology{Cores: 8, ThreadsPerCore: 4}, machine.NoLoad, noJitter(), 3)
		k := kernel.New(engine.New(), mach)
		sys, err := sched.NewPRMWP(k, sched.PRMWPConfig{
			Set: set, Horizon: horizon, Policy: assign.OneByOne,
			Heuristic:      partition.WorstFit,
			OverheadMargin: 3 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		sys.Start()
		k.Run()
		var records [][]task.JobRecord
		for _, p := range sys.Processes {
			records = append(records, p.Records())
		}
		lag, jobs := lagOf(records)
		b.ReportMetric(float64(lag), "release-lag-ns")
		b.ReportMetric(0, "migrations/job")
		_ = jobs
	})
	b.Run("grmwp-middleware", func(b *testing.B) {
		mach := machine.MustNew(machine.Topology{Cores: 8, ThreadsPerCore: 4}, machine.NoLoad, noJitter(), 3)
		k := kernel.New(engine.New(), mach)
		sys, err := sched.NewGRMWP(k, sched.GRMWPConfig{
			Set: set, Horizon: horizon, Policy: assign.OneByOne,
			Processors: 3, OverheadMargin: 3 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		sys.Start()
		k.Run()
		var records [][]task.JobRecord
		for _, p := range sys.Processes {
			records = append(records, p.Records())
		}
		lag, jobs := lagOf(records)
		b.ReportMetric(float64(lag), "release-lag-ns")
		if jobs > 0 {
			b.ReportMetric(float64(sys.Migrations())/float64(jobs), "migrations/job")
		}
	})
}

// BenchmarkAblationOnlineVsOfflineOD quantifies the §I motivation: the
// dynamic-priority baseline computes each job's optional window online
// (one O(active-jobs) scan per job), while semi-fixed-priority scheduling
// computes optional deadlines once, offline.
func BenchmarkAblationOnlineVsOfflineOD(b *testing.B) {
	set := task.MustNewSet(
		task.Uniform("a", 10*time.Millisecond, 10*time.Millisecond, 0, 0, 50*time.Millisecond),
		task.Uniform("b", 10*time.Millisecond, 10*time.Millisecond, 0, 0, 80*time.Millisecond),
		task.Uniform("c", 10*time.Millisecond, 10*time.Millisecond, 0, 0, 100*time.Millisecond),
	)
	b.Run("edf-online", func(b *testing.B) {
		var calcs, jobs int
		for i := 0; i < b.N; i++ {
			res, err := sched.SimulateEDFWP(set, time.Second, time.Millisecond)
			if err != nil {
				b.Fatal(err)
			}
			calcs += res.OnlineCalcs
			jobs += res.Jobs
		}
		b.ReportMetric(float64(calcs)/float64(jobs), "online-calcs/job")
	})
	b.Run("rmwp-offline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := analysis.RMWP(set); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(0, "online-calcs/job")
	})
}

// BenchmarkAblationSignalVsBroadcast quantifies the §IV-C design choice:
// RT-Seed signals each parallel optional thread individually (so parts can
// be discarded independently) instead of broadcasting. The bench compares
// the wake-up costs of the two primitives for np waiters.
func BenchmarkAblationSignalVsBroadcast(b *testing.B) {
	for _, mode := range []string{"signal-each", "broadcast"} {
		mode := mode
		b.Run(fmt.Sprintf("%s/np=%d", mode, benchNP), func(b *testing.B) {
			mach := machine.MustNew(machine.XeonPhi3120A(), machine.NoLoad, noJitter(), 1)
			k := kernel.New(engine.New(), mach)
			shared := k.NewCondVar("shared")
			conds := make([]*kernel.CondVar, benchNP)
			for i := range conds {
				conds[i] = k.NewCondVar(fmt.Sprintf("cv%d", i))
			}
			done := k.NewCondVar("done")
			remaining := 0
			for i := 0; i < benchNP; i++ {
				i := i
				cpu := machine.HWThread(1 + i%227)
				w := k.MustNewThread(kernel.ThreadConfig{Name: "w", Priority: 41, CPU: cpu}, func(c *kernel.TCB) {
					for round := 0; round < b.N; round++ {
						if mode == "broadcast" {
							c.CondWait(shared)
						} else {
							c.CondWait(conds[i])
						}
						remaining--
						if remaining == 0 {
							c.CondSignal(done)
						}
					}
				})
				w.Start()
			}
			var wakeTotal time.Duration
			m := k.MustNewThread(kernel.ThreadConfig{Name: "m", Priority: 90, CPU: 0}, func(c *kernel.TCB) {
				for round := 0; round < b.N; round++ {
					c.Sleep(time.Millisecond) // let waiters park
					remaining = benchNP
					start := c.Now()
					if mode == "broadcast" {
						c.CondBroadcast(shared)
					} else {
						for _, cv := range conds {
							c.CondSignal(cv)
						}
					}
					wakeTotal += c.Now().Sub(start)
					for remaining > 0 {
						c.CondWait(done)
					}
				}
			})
			m.Start()
			k.Run()
			b.ReportMetric(float64(wakeTotal)/float64(b.N), "wake-ns/round")
		})
	}
}

// BenchmarkRMWPAnalysis measures the schedulability analysis itself: the
// optional-deadline fixed point over task-set sizes.
func BenchmarkRMWPAnalysis(b *testing.B) {
	for _, n := range []int{1, 8, 32} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tasks := make([]task.Task, n)
			for i := range tasks {
				period := time.Duration(10+i*7) * time.Millisecond
				// Total utilization 0.4 regardless of n, so every size is
				// schedulable and the bench measures analysis cost only.
				part := period / time.Duration(5*n)
				tasks[i] = task.Uniform(fmt.Sprintf("t%d", i),
					part, part, 0, 0, period)
			}
			set := task.MustNewSet(tasks...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := analysis.RMWP(set); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAcceptanceRatio runs the schedulability-cost experiment: the
// fraction of random task sets (UUniFast, n=6) admitted by the RMWP test
// versus exact general-RM analysis at 80% total utilization. RMWP accepts
// fewer sets — the price of guaranteed wind-up parts.
func BenchmarkAcceptanceRatio(b *testing.B) {
	points, err := analysis.AcceptanceRatio(analysis.AcceptanceConfig{
		N:            6,
		SetsPerPoint: max(b.N, 20),
		Utilizations: []float64{0.8},
		Seed:         0xacce,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(points[0].RMWP, "rmwp-accept")
	b.ReportMetric(points[0].GeneralRM, "rm-accept")
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// BenchmarkTradingPipeline measures the end-to-end trading application:
// simulated jobs per second through the full middleware stack.
func BenchmarkTradingPipeline(b *testing.B) {
	feed, err := trading.NewFeed(trading.FeedConfig{Seed: 7, Volatility: 0.002})
	if err != nil {
		b.Fatal(err)
	}
	pipe, err := trading.NewPipeline(feed, trading.DefaultTechnical(),
		trading.NewEngine(), trading.NewBroker(), 0)
	if err != nil {
		b.Fatal(err)
	}
	mach := machine.MustNew(machine.XeonPhi3120A(), machine.NoLoad, noJitter(), 7)
	k := kernel.New(engine.New(), mach)
	np := pipe.NumOptional()
	cpus, err := assign.HWThreads(mach.Topology(), assign.OneByOne, np)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewProcess(k, core.Config{
		Task:              task.Uniform("trader", 250*time.Millisecond, 150*time.Millisecond, time.Second, np, time.Second),
		MandatoryPriority: 90,
		MandatoryCPU:      0,
		OptionalCPUs:      cpus,
		OptionalDeadline:  750 * time.Millisecond,
		Jobs:              b.N,
		App: core.App{
			OnMandatory: pipe.OnMandatory,
			OnOptional:  pipe.OnOptional,
			OnWindup:    pipe.OnWindup,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	p.Start()
	k.Run()
	if p.Stats().Jobs != b.N {
		b.Fatalf("ran %d jobs, want %d", p.Stats().Jobs, b.N)
	}
}

// BenchmarkEngineScheduleStep measures the engine's steady-state hot path:
// one Schedule→Step cycle with a warm node pool. The companion test
// TestScheduleStepZeroAlloc asserts the 0 allocs/op this reports.
func BenchmarkEngineScheduleStep(b *testing.B) {
	e := engine.New()
	fn := func() {}
	for i := 0; i < 64; i++ { // warm the node pool
		e.Schedule(e.Now(), 0, fn)
	}
	for e.Step() {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now(), 0, fn)
		e.Step()
	}
}

// benchSweepCfg is the reduced Figs. 10-13 grid used by the executor
// benchmarks: 27 independent cells (3 loads x 3 policies x 3 np values).
func benchSweepCfg(workers int) overhead.SweepConfig {
	return overhead.SweepConfig{NumParts: []int{4, 16, 57}, Jobs: 3, Workers: workers}
}

// BenchmarkSweepSequential runs the reduced figure sweep on one worker —
// the pre-parallelism baseline.
func BenchmarkSweepSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := overhead.SweepAll(benchSweepCfg(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallel runs the same sweep on GOMAXPROCS workers and
// reports the measured wall-clock speedup over a one-worker run of the
// same grid ("speedup-x"; ~1 on a single-CPU host, ~min(workers, 27) on
// real hardware since the cells are embarrassingly parallel).
func BenchmarkSweepParallel(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	seqStart := time.Now()
	if _, err := overhead.SweepAll(benchSweepCfg(1)); err != nil {
		b.Fatal(err)
	}
	seq := time.Since(seqStart)
	parStart := time.Now()
	if _, err := overhead.SweepAll(benchSweepCfg(workers)); err != nil {
		b.Fatal(err)
	}
	par := time.Since(parStart)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := overhead.SweepAll(benchSweepCfg(workers)); err != nil {
			b.Fatal(err)
		}
	}
	// Reported after the loop: ResetTimer deletes user metrics, so reporting
	// before it silently dropped the speedup from the output.
	b.ReportMetric(float64(seq)/float64(par), "speedup-x")
}

// BenchmarkKernelEventThroughput measures the simulator substrate itself:
// raw engine events per second.
func BenchmarkKernelEventThroughput(b *testing.B) {
	e := engine.New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(time.Microsecond, 0, tick)
		}
	}
	b.ResetTimer()
	e.Schedule(engine.At(0), 0, tick)
	e.Run()
}

func noJitter() machine.CostModel {
	m := machine.DefaultCostModel()
	m.JitterFrac = 0
	return m
}
