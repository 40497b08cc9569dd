package sched

import (
	"fmt"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/task"
)

// ManyTaskConfig parameterizes a many-task kernel workload: n periodic
// tasks generated with UUniFast, RM-banded priorities, pinned round-robin
// over the machine's hardware threads. This is the scale regime of
// semi-federated multiprocessor scheduling — thousands of tasks on hundreds
// of hardware threads — used by the scaling benchmarks to prove the
// scheduling core's per-event cost stays flat as n grows.
type ManyTaskConfig struct {
	// N is the number of periodic tasks.
	N int
	// Seed seeds the task-set generator.
	Seed uint64
	// UtilizationPerTask is each task's mean utilization (default 0.05;
	// total utilization is spread over all hardware threads).
	UtilizationPerTask float64
	// MinPeriod and MaxPeriod bound the generator's log-uniform period
	// distribution (defaults 1ms and 100ms).
	MinPeriod, MaxPeriod time.Duration
	// ReleaseOnly makes each task body sleep until its next release and
	// nothing else. Every simulated event is then kernel scheduling work —
	// timer arm, timer fire, dispatch, requeue — with no compute bursts in
	// between, which isolates the scheduling core's per-event cost from the
	// cost of running task host code. The scaling benchmarks use this mode
	// to compare queue implementations; compute mode to measure end-to-end.
	ReleaseOnly bool
}

// ManyTaskSystem is a built many-task workload: one kernel thread per task,
// each running periodic mandatory+wind-up compute bursts.
type ManyTaskSystem struct {
	Set     *task.Set
	Threads []*kernel.Thread

	jobs int
}

// Jobs returns the number of completed jobs across all tasks.
func (s *ManyTaskSystem) Jobs() int { return s.jobs }

// manyTaskPC is the program counter of a many-task continuation body.
type manyTaskPC uint8

const (
	// mtRelease: account the finished job (except on the first step) and
	// sleep until the next release.
	mtRelease manyTaskPC = iota
	// mtMandatory: the release sleep returned; run the mandatory part.
	mtMandatory
	// mtWindup: the mandatory burst returned; run the wind-up part.
	mtWindup
)

// manyTaskBody is the continuation form of a periodic task: sleep until
// release, compute mandatory, compute wind-up, repeat. One value per task,
// allocated once at workload construction; Step allocates nothing, so the
// steady-state scaling benchmarks run at 0 allocs/op.
type manyTaskBody struct {
	sys         *ManyTaskSystem
	period      time.Duration
	mandatory   time.Duration
	windup      time.Duration
	release     engine.Time
	pc          manyTaskPC
	releaseOnly bool
}

//rtseed:noalloc
//rtseed:kernelctx
func (b *manyTaskBody) Step(c *kernel.TCB, r kernel.Resume) kernel.Next {
	switch b.pc {
	case mtRelease:
		if r.First {
			b.release = c.Now()
		} else {
			b.sys.jobs++
			b.release = b.release.Add(b.period)
		}
		if !b.releaseOnly {
			b.pc = mtMandatory
		}
		return kernel.SleepUntil(b.release)
	case mtMandatory:
		b.pc = mtWindup
		return kernel.Compute(b.mandatory)
	case mtWindup:
		b.pc = mtRelease
		return kernel.Compute(b.windup)
	}
	panic("sched: corrupt many-task body state")
}

// NewManyTask generates the task set and creates (but does not start) one
// thread per task on k. Task i is pinned to hardware thread i mod NumHWThreads
// and runs at its RM band priority; each job computes the mandatory part,
// then the wind-up part, then sleeps until the next release.
func NewManyTask(k *kernel.Kernel, cfg ManyTaskConfig) (*ManyTaskSystem, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("sched: many-task workload needs N > 0, got %d", cfg.N)
	}
	perTask := cfg.UtilizationPerTask
	if perTask == 0 {
		perTask = 0.05
	}
	minT, maxT := cfg.MinPeriod, cfg.MaxPeriod
	if minT == 0 {
		minT = time.Millisecond
	}
	if maxT == 0 {
		maxT = 100 * time.Millisecond
	}
	set, err := task.Generate(task.GenConfig{
		N:                cfg.N,
		TotalUtilization: perTask * float64(cfg.N),
		MinPeriod:        minT,
		MaxPeriod:        maxT,
		Seed:             cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	prios, err := task.RMBandPriorities(set, kernel.MinPriority, kernel.MaxPriority-1)
	if err != nil {
		return nil, err
	}
	sys := &ManyTaskSystem{Set: set}
	nhw := k.Machine().Topology().NumHWThreads()
	for i, tk := range set.Tasks {
		th, err := k.NewBodyThread(kernel.ThreadConfig{
			Name:     tk.Name,
			Priority: prios[i],
			CPU:      machine.HWThread(i % nhw),
		}, &manyTaskBody{
			sys:         sys,
			period:      tk.Period,
			mandatory:   tk.Mandatory,
			windup:      tk.Windup,
			releaseOnly: cfg.ReleaseOnly,
		})
		if err != nil {
			return nil, err
		}
		sys.Threads = append(sys.Threads, th)
	}
	return sys, nil
}

// Start makes every task thread ready at the current virtual time.
func (s *ManyTaskSystem) Start() {
	for _, th := range s.Threads {
		th.Start()
	}
}
