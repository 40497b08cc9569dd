package sched

import (
	"fmt"
	"time"

	"rtseed/internal/analysis"
	"rtseed/internal/assign"
	"rtseed/internal/core"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/partition"
	"rtseed/internal/task"
)

// PRMWPConfig configures a full P-RMWP system over a task set.
type PRMWPConfig struct {
	// Set is the task set.
	Set *task.Set
	// Horizon is how long to run; each task executes Horizon/T_i jobs.
	Horizon time.Duration
	// Policy assigns parallel optional parts to hardware threads.
	Policy assign.Policy
	// Heuristic partitions tasks over processors (default FirstFit).
	Heuristic partition.Heuristic
	// OverheadMargin shortens each optional deadline to budget the
	// scheduling overheads the paper folds into the WCETs (§II-A).
	// Zero uses the analytical optional deadline unchanged.
	OverheadMargin time.Duration
	// UseRMUS applies the RM-US(M/(3M-2)) utilization separation of the
	// paper's footnote 1: a task whose utilization exceeds the threshold
	// takes the reserved HPQ priority 99 on its processor. At most one
	// such task may land on each processor.
	UseRMUS bool
	// Apps optionally maps task name to its application callbacks.
	Apps map[string]core.App
}

// PRMWPSystem is an instantiated P-RMWP run: one RT-Seed process per task,
// partitioned over the first SMT slot of each core.
type PRMWPSystem struct {
	Processes  map[string]*core.Process
	Assignment *partition.Assignment

	// ordered preserves creation order so Start is deterministic.
	ordered []*core.Process
}

// NewPRMWP partitions the task set, computes optional deadlines with the
// per-processor RMWP analysis, assigns RM priorities within each processor,
// lays out optional parts under the policy, and builds the processes.
// Mandatory threads are pinned to SMT slot 0 of their processor's core.
func NewPRMWP(k *kernel.Kernel, cfg PRMWPConfig) (*PRMWPSystem, error) {
	if err := checkRun(cfg.Set, cfg.Horizon, cfg.Policy, cfg.OverheadMargin); err != nil {
		return nil, err
	}
	heur := cfg.Heuristic
	if heur == 0 {
		heur = partition.FirstFit
	}
	topo := k.Machine().Topology()
	asg, err := partition.Partition(cfg.Set, topo.Cores, heur)
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}

	sys := &PRMWPSystem{
		Processes:  make(map[string]*core.Process, cfg.Set.Len()),
		Assignment: asg,
	}
	for proc, tasks := range asg.PerProcessor {
		if len(tasks) == 0 {
			continue
		}
		sub := task.MustNewSet(tasks...)
		results, err := analysis.RMWP(sub)
		if err != nil {
			return nil, fmt.Errorf("processor %d: %w", proc, err)
		}
		prios, err := core.RTQPriorities(len(results))
		if err != nil {
			return nil, err
		}
		if cfg.UseRMUS {
			if err := applyRMUS(results, prios, topo.Cores); err != nil {
				return nil, fmt.Errorf("processor %d: %w", proc, err)
			}
		}
		for i, res := range results {
			tk := res.Task
			od := res.OptionalDeadline - cfg.OverheadMargin
			if od <= 0 {
				return nil, fmt.Errorf("task %s: overhead margin %v exhausts optional deadline %v",
					tk.Name, cfg.OverheadMargin, res.OptionalDeadline)
			}
			optCPUs, err := assign.HWThreadsFrom(topo, cfg.Policy, tk.NumOptional(), proc)
			if err != nil {
				return nil, fmt.Errorf("task %s: %w", tk.Name, err)
			}
			jobs := int(cfg.Horizon / tk.Period)
			if jobs < 1 {
				jobs = 1
			}
			p, err := core.NewProcess(k, core.Config{
				Task:              tk,
				MandatoryPriority: prios[i],
				MandatoryCPU:      machine.HWThread(proc),
				OptionalCPUs:      optCPUs,
				OptionalDeadline:  od,
				Jobs:              jobs,
				App:               cfg.Apps[tk.Name],
			})
			if err != nil {
				return nil, fmt.Errorf("task %s: %w", tk.Name, err)
			}
			sys.Processes[tk.Name] = p
			sys.ordered = append(sys.ordered, p)
		}
	}
	return sys, nil
}

// checkRun validates the settings PRMWPConfig and GRMWPConfig share. A
// negative margin would move optional deadlines past the analysed ones.
func checkRun(set *task.Set, horizon time.Duration, pol assign.Policy, margin time.Duration) error {
	switch {
	case set == nil || set.Len() == 0:
		return task.ErrEmptyTaskSet
	case horizon <= 0:
		return fmt.Errorf("sched: horizon must be positive, got %v", horizon)
	case !pol.Valid():
		return fmt.Errorf("sched: invalid assignment policy %d", pol)
	case margin < 0:
		return fmt.Errorf("sched: overhead margin must not be negative, got %v", margin)
	}
	return nil
}

// applyRMUS promotes the task(s) exceeding the RM-US threshold to the HPQ
// priority; the prios slice (parallel to results) is edited in place.
func applyRMUS(results []analysis.Result, prios []int, m int) error {
	promoted := 0
	for i, res := range results {
		if analysis.NeedsHighestPriority(res.Task, m) {
			prios[i] = core.HPQPriority
			promoted++
		}
	}
	if promoted > 1 {
		return fmt.Errorf("sched: %d tasks exceed the RM-US threshold on one processor; the HPQ holds one", promoted)
	}
	return nil
}

// Start launches every process in creation order.
func (s *PRMWPSystem) Start() {
	for _, p := range s.ordered {
		p.Start()
	}
}

// Stats aggregates per-task statistics by task name.
func (s *PRMWPSystem) Stats() map[string]task.Stats {
	out := make(map[string]task.Stats, len(s.Processes))
	for name, p := range s.Processes {
		out[name] = p.Stats()
	}
	return out
}
