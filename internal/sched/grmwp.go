package sched

import (
	"fmt"
	"time"

	"rtseed/internal/analysis"
	"rtseed/internal/assign"
	"rtseed/internal/core"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/task"
)

// GRMWPConfig configures a middleware-level G-RMWP run: global RM priorities
// with per-release migration of mandatory threads. The paper rejects this
// design for RT-Seed ("global scheduling requires fine-grained processor
// control, but middleware sits atop an operating system", §IV-B); this
// runner implements the closest middleware-level approximation — each
// mandatory thread migrates at every release to the processor with the
// least accumulated real-time CPU time — so the rejected design's overheads
// can be measured rather than assumed.
type GRMWPConfig struct {
	// Set is the task set; priorities are global RM over the whole set.
	Set *task.Set
	// Horizon is how long to run; each task executes Horizon/T_i jobs.
	Horizon time.Duration
	// Policy assigns parallel optional parts to hardware threads.
	Policy assign.Policy
	// Processors caps how many SMT-slot-0 processors the mandatory threads
	// balance across (0 = all cores).
	Processors int
	// OverheadMargin shortens optional deadlines as in PRMWPConfig.
	OverheadMargin time.Duration
}

// GRMWPSystem is an instantiated middleware-level G-RMWP run.
type GRMWPSystem struct {
	Processes map[string]*core.Process

	k       *kernel.Kernel
	ordered []*core.Process
}

// NewGRMWP builds the system: global RM priorities (98 downward over the
// whole set) and a least-loaded migration policy for mandatory threads.
// Optional deadlines come from the single-processor RMWP analysis of the
// whole set — an optimistic bound for global scheduling, which is exactly
// why migration overheads show up as deadline pressure.
func NewGRMWP(k *kernel.Kernel, cfg GRMWPConfig) (*GRMWPSystem, error) {
	if err := checkRun(cfg.Set, cfg.Horizon, cfg.Policy, cfg.OverheadMargin); err != nil {
		return nil, err
	}
	topo := k.Machine().Topology()
	m := cfg.Processors
	if m <= 0 || m > topo.Cores {
		m = topo.Cores
	}
	results, err := analysis.RMWP(cfg.Set)
	if err != nil {
		return nil, err
	}
	prios, err := core.RTQPriorities(len(results))
	if err != nil {
		return nil, err
	}
	sys := &GRMWPSystem{
		Processes: make(map[string]*core.Process, cfg.Set.Len()),
		k:         k,
	}
	for i, res := range results {
		tk := res.Task
		od := res.OptionalDeadline - cfg.OverheadMargin
		if od <= 0 {
			return nil, fmt.Errorf("task %s: margin exhausts optional deadline", tk.Name)
		}
		optCPUs, err := assign.HWThreads(topo, cfg.Policy, tk.NumOptional())
		if err != nil {
			return nil, err
		}
		jobs := int(cfg.Horizon / tk.Period)
		if jobs < 1 {
			jobs = 1
		}
		p, err := core.NewProcess(k, core.Config{
			Task:              tk,
			MandatoryPriority: prios[i],
			MandatoryCPU:      0,
			OptionalCPUs:      optCPUs,
			OptionalDeadline:  od,
			Jobs:              jobs,
			Migrate:           sys.leastLoaded(m),
		})
		if err != nil {
			return nil, fmt.Errorf("task %s: %w", tk.Name, err)
		}
		sys.Processes[tk.Name] = p
		sys.ordered = append(sys.ordered, p)
	}
	return sys, nil
}

// leastLoaded returns a migration policy that moves a mandatory thread to
// the SMT-slot-0 hardware thread (among the first m cores) with the least
// accumulated busy time.
func (s *GRMWPSystem) leastLoaded(m int) func(job int, current machine.HWThread) machine.HWThread {
	return func(job int, current machine.HWThread) machine.HWThread {
		best := current
		var bestBusy time.Duration = -1
		for proc := 0; proc < m; proc++ {
			h := machine.HWThread(proc)
			busy := time.Duration(float64(s.k.Now().Duration()) * s.k.Utilization(h, 0))
			if bestBusy < 0 || busy < bestBusy {
				best, bestBusy = h, busy
			}
		}
		return best
	}
}

// Start launches every process in creation order.
func (s *GRMWPSystem) Start() {
	for _, p := range s.ordered {
		p.Start()
	}
}

// Stats aggregates per-task statistics by task name.
func (s *GRMWPSystem) Stats() map[string]task.Stats {
	out := make(map[string]task.Stats, len(s.Processes))
	for name, p := range s.Processes {
		out[name] = p.Stats()
	}
	return out
}

// Migrations sums the mandatory threads' migration counts.
func (s *GRMWPSystem) Migrations() int {
	n := 0
	for _, p := range s.ordered {
		n += p.MandatoryThread().Migrations()
	}
	return n
}
