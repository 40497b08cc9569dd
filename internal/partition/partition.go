// Package partition assigns tasks to processors offline for P-RMWP
// (paper §IV-B: "partitioned scheduling assigns tasks to processors offline
// and they do not migrate among processors online"). Each processor admits a
// task by the uniprocessor RMWP test, run by one analysis.IncrementalRMWP per
// processor: the test the fleet's admission runs on every core.
package partition

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"rtseed/internal/analysis"
	"rtseed/internal/task"
)

// Heuristic is a bin-packing heuristic for partitioned assignment.
type Heuristic int

const (
	// FirstFit places each task on the lowest-indexed processor that admits
	// it.
	FirstFit Heuristic = iota + 1
	// WorstFit places each task on the admitting processor with the lowest
	// current utilization (load balancing), ties to the lower index.
	WorstFit
)

// String implements fmt.Stringer.
func (h Heuristic) String() string {
	switch h {
	case FirstFit:
		return "first-fit"
	case WorstFit:
		return "worst-fit"
	default:
		return "unknown-heuristic"
	}
}

// ErrNoFit is wrapped by Partition's error when a task fits on no processor.
var ErrNoFit = errors.New("partition: task fits on no processor")

// Assignment maps each processor index to the tasks assigned to it.
type Assignment struct {
	// PerProcessor[p] lists the tasks of processor p, in assignment order.
	PerProcessor [][]task.Task
	// Processor maps task name to processor index.
	Processor map[string]int
}

// Utilization returns processor p's assigned utilization.
func (a *Assignment) Utilization(p int) float64 {
	u := 0.0
	for _, t := range a.PerProcessor[p] {
		u += t.Utilization()
	}
	return u
}

// UsedProcessors returns how many processors received at least one task.
func (a *Assignment) UsedProcessors() int {
	n := 0
	for _, ts := range a.PerProcessor {
		if len(ts) > 0 {
			n++
		}
	}
	return n
}

// Partition assigns the tasks of s to m processors using heuristic h,
// considering tasks in decreasing-utilization order (the "-decreasing"
// variants, which dominate their plain counterparts). Each task goes to the
// first processor, in the order h tries them, whose IncrementalRMWP admits
// it, so a successful partition is RMWP-schedulable by construction. The
// tasks of s must be valid, as task.NewSet makes them.
func Partition(s *task.Set, m int, h Heuristic) (*Assignment, error) {
	if s == nil || s.Len() == 0 {
		return nil, task.ErrEmptyTaskSet
	}
	if m <= 0 {
		return nil, fmt.Errorf("partition: need at least one processor, got %d", m)
	}
	if h != FirstFit && h != WorstFit {
		return nil, fmt.Errorf("partition: unknown heuristic %d", h)
	}
	ordered := make([]task.Task, s.Len())
	copy(ordered, s.Tasks)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].Utilization() > ordered[j].Utilization()
	})

	a := &Assignment{
		PerProcessor: make([][]task.Task, m),
		Processor:    make(map[string]int, s.Len()),
	}
	rmwp := make([]analysis.IncrementalRMWP, m)
	// util[p] adds processor p's utilizations in assignment order, as
	// Utilization does, so WorstFit's ties are exactly Utilization's.
	util := make([]float64, m)
	// order lists the processors in the order h tries them: by index for
	// FirstFit, by ascending utilization and then index for WorstFit.
	order := make([]int, m)
	for p := range order {
		order[p] = p
	}
	for _, t := range ordered {
		if h == WorstFit {
			slices.SortFunc(order, func(p, q int) int {
				return cmp.Or(cmp.Compare(util[p], util[q]), cmp.Compare(p, q))
			})
		}
		p := -1
		for _, q := range order {
			if _, ok := rmwp[q].Insert(t); ok {
				p = q
				break
			}
		}
		if p < 0 {
			return nil, fmt.Errorf("task %s (U=%.3f): %w", t.Name, t.Utilization(), ErrNoFit)
		}
		a.PerProcessor[p] = append(a.PerProcessor[p], t)
		a.Processor[t.Name] = p
		util[p] += t.Utilization()
	}
	return a, nil
}
