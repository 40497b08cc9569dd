package main

import (
	"fmt"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/sched"
	"rtseed/internal/task"
	"rtseed/internal/trace"
)

// 16,384 periodic tasks with continuation bodies on the Xeon Phi: 0.008
// utilization each (0.57 per hardware thread), so the load is feasible and
// every task's release timer stays armed — about 16.2k events pending.
const (
	mtTasks     = 16384
	mtUtil      = 0.008
	mtMinPeriod = 10 * time.Millisecond
	mtMaxPeriod = time.Second

	// mtSlice is the simulated time one op advances.
	mtSlice = 25 * time.Millisecond
	// mtWarm runs in setup. Every task releases at time 0; by then each
	// has finished its first job and armed its next release timer, so the
	// timer set is at its full size.
	mtWarm = 500 * time.Millisecond
	// mtRungSpan is the simulated span the kernel record counts are
	// taken over.
	mtRungSpan = 2 * time.Second
	// The engine-only and release-only rungs are timed over mtRungChunks
	// chunks of mtRungChunk simulated time each, alternating between them.
	mtRungChunks = 16
	mtRungChunk  = 250 * time.Millisecond
)

// mtSys is one built many-task system.
type mtSys struct {
	eng   *engine.Engine
	k     *kernel.Kernel
	sys   *sched.ManyTaskSystem
	until engine.Time
}

// buildManyTask builds and starts the task set; releaseOnly selects the
// sleep-only bodies of the kernel ladder rung, tr attaches a tracer.
func buildManyTask(rec *recorder, seed uint64, releaseOnly bool, tr *trace.Tracer) (*mtSys, error) {
	s := &mtSys{}
	var mach *machine.Machine
	var err error
	rec.do("machine.New", func() {
		mach, err = machine.New(machine.XeonPhi3120A(), machine.NoLoad, machine.DefaultCostModel(), seed)
	})
	if err != nil {
		return nil, err
	}
	rec.do("kernel.New", func() {
		s.eng = engine.New()
		s.k = kernel.New(s.eng, mach)
		if tr != nil {
			s.k.SetTrace(tr)
		}
	})
	rec.do("sched.NewManyTask", func() {
		s.sys, err = sched.NewManyTask(s.k, sched.ManyTaskConfig{
			N:                  mtTasks,
			Seed:               seed,
			UtilizationPerTask: mtUtil,
			MinPeriod:          mtMinPeriod,
			MaxPeriod:          mtMaxPeriod,
			ReleaseOnly:        releaseOnly,
		})
	})
	if err != nil {
		return nil, err
	}
	s.sys.Start()
	return s, nil
}

// advance runs the next d of simulated time with engine.RunUntil. Slicing
// with kernel.RunUntil instead would shut the kernel down after the first
// slice.
func (s *mtSys) advance(d time.Duration) error {
	jobs := s.sys.Jobs()
	s.until = s.until.Add(d)
	s.eng.RunUntil(s.until)
	if s.eng.Pending() == 0 {
		return fmt.Errorf("engine ran dry at %v", s.until)
	}
	if s.sys.Jobs() <= jobs {
		return fmt.Errorf("no job completed in (%v, %v]", s.until.Add(-d), s.until)
	}
	return nil
}

// digest covers the modelled outcome: completed jobs, each task's consumed
// CPU time and each hardware thread's utilization.
func (s *mtSys) digest() string {
	d := newDigest()
	d.add("jobs %d", s.sys.Jobs())
	for _, th := range s.sys.Threads {
		d.add("cpu %d", th.CPUTime())
	}
	for h := 0; h < s.k.Machine().Topology().NumHWThreads(); h++ {
		d.add("util %v", s.k.Utilization(machine.HWThread(h), 0))
	}
	return d.sum()
}

func runManyTask(r *run) error {
	s, setup, err := setups(r, setupReps, func() (*mtSys, error) {
		s, err := buildManyTask(r.spans, r.seed, false, nil)
		if err != nil {
			return nil, err
		}
		r.spans.do("warmup", func() { err = s.advance(mtWarm) })
		return s, err
	})
	if err != nil {
		return err
	}

	steps0 := s.eng.Steps()
	pending := make([]float64, 0, r.ops)
	l := r.timeOps(mtSlice, func(int) error {
		if err := s.advance(mtSlice); err != nil {
			return err
		}
		if r.traced() {
			pending = append(pending, float64(s.eng.Pending()))
		}
		return nil
	})
	events := s.eng.Steps() - steps0
	r.report(l, setup)

	var jobs int
	var dg string
	r.spans.do("end_reads", func() {
		jobs = s.sys.Jobs()
		dg = s.digest()
	})
	fmt.Fprintf(r.out, "outcome: %d jobs by %v, %d events pending; digest %s\n", jobs, s.until, s.eng.Pending(), dg)

	if !r.traced() {
		return nil
	}
	r.setLayer("engine.events_per_op", float64(events)/float64(r.ops), "count")
	r.setLayer("engine.ns_per_event", sum(l.opNs)/float64(events), "ns")
	r.setLayer("engine.pending_p50", median(pending), "count")
	if err := mtKernelRung(r); err != nil {
		return err
	}
	return mtLadder(r, s.sys.Set)
}

// mtKernelRung counts kernel trace records by kind over mtRungSpan of
// steady state on a fresh system whose tracer has a counting tap.
func mtKernelRung(r *run) error {
	var counts kindCounts
	id := r.spans.begin("ladder.kernel_counts", -1)
	defer r.spans.end(id)
	tr := trace.New(trace.Config{CPUs: machine.XeonPhi3120A().NumHWThreads(), Capacity: 64})
	tr.Tap(counts.tap)
	s, err := buildManyTask(r.spans, r.seed, false, tr)
	if err != nil {
		return err
	}
	if err := s.advance(mtWarm); err != nil {
		return err
	}
	base := counts
	if err := s.advance(mtRungSpan); err != nil {
		return err
	}
	counts.since(&base).report(r, mtRungSpan)
	return nil
}

// mtLadder times the two rungs below the compute workload: the engine
// alone driving the task set's release timers with empty callbacks, and
// the kernel with release-only bodies. After warm-up the two advance over
// the same chunks of simulated time in alternation, so host drift hits
// both, and each figure is the median over chunks. A release-only chunk's
// CPU time less that of the engine-only chunk run just before it, per
// release-only event, is the kernel's own cost.
func mtLadder(r *run, set *task.Set) error {
	eng := engine.New()
	r.spans.do("ladder.engine_only.build", func() {
		for _, tk := range set.Tasks {
			period := tk.Period
			var fire func()
			fire = func() { eng.Schedule(eng.Now().Add(period), 0, fire) }
			eng.Schedule(0, 0, fire)
		}
	})
	eng.RunUntil(engine.At(mtWarm))
	rel, err := buildManyTask(r.spans, r.seed, true, nil)
	if err != nil {
		return err
	}
	if err := rel.advance(mtWarm); err != nil {
		return err
	}

	engineNs := make([]float64, 0, mtRungChunks)
	kernelNs := make([]float64, 0, mtRungChunks)
	for c := 1; c <= mtRungChunks; c++ {
		id := r.spans.begin("ladder.engine_only", -1)
		steps0, start := eng.Steps(), cpuTime()
		eng.RunUntil(engine.At(mtWarm + time.Duration(c)*mtRungChunk))
		tEngine := float64(cpuTime() - start)
		engineNs = append(engineNs, tEngine/float64(eng.Steps()-steps0))
		r.spans.end(id)

		id = r.spans.begin("ladder.release_only", -1)
		steps0, start = rel.eng.Steps(), cpuTime()
		err := rel.advance(mtRungChunk)
		tRelease := float64(cpuTime() - start)
		r.spans.end(id)
		if err != nil {
			return err
		}
		kernelNs = append(kernelNs, (tRelease-tEngine)/float64(rel.eng.Steps()-steps0))
	}
	r.setLayer("engine.only_ns_per_event", median(engineNs), "ns")
	r.setLayer("kernel.ns_per_event", median(kernelNs), "ns")
	return nil
}
