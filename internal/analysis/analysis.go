// Package analysis implements the schedulability theory RT-Seed relies on:
// the Liu & Layland rate-monotonic utilization bound, exact response-time
// analysis, the RMWP optional-deadline calculation for semi-fixed-priority
// scheduling, and the RM-US utilization-separation rule the paper's HPQ
// priority level is reserved for.
//
// The paper cites "Theorem 2 of [5]" (Chishiro et al., RTCSA 2010) for the
// optional-deadline formula but restates only the single-task case
// OD_1 = D_1 − w_1 (§V-A). We therefore reconstruct the general formula in
// the standard response-time style, consistent with everything the paper
// states: OD_i = D_i − R^w_i, where R^w_i is the worst-case response time of
// the wind-up part w_i under interference from the mandatory and wind-up
// parts of higher-priority tasks; the task set is RMWP-schedulable iff, in
// addition, every mandatory part's worst-case response time is at most OD_i.
// For n = 1 this yields exactly OD_1 = D_1 − w_1. Optional parts never
// interfere: under semi-fixed-priority scheduling every mandatory and
// wind-up part has higher priority than every (parallel) optional part
// (Theorems 1-2 of the paper), so the analysis is identical in the extended
// and parallel-extended models.
//
// RMWP analyzes a whole task set from scratch and is the reference.
// IncrementalRMWP keeps one processor's analysis current as tasks come and
// go, caching every task's response times so that an insert re-solves only
// the fixed points the new task can change, and it reaches RMWP's verdicts
// and response times exactly. It is the one admission test: the offline
// partitioner (package partition) runs it once per candidate processor for
// every task, and the fleet's admission control once per candidate core for
// every offered client.
package analysis

import (
	"errors"
	"fmt"
	"math"
	"time"

	"rtseed/internal/task"
)

// ErrUnschedulable is wrapped by the errors reported when a task set fails a
// schedulability test.
var ErrUnschedulable = errors.New("analysis: unschedulable")

// LiuLaylandBound returns the RM utilization bound n(2^{1/n} − 1).
func LiuLaylandBound(n int) float64 {
	if n <= 0 {
		return 0
	}
	fn := float64(n)
	return fn * (math.Pow(2, 1/fn) - 1)
}

// RMUSThreshold returns the RM-US(M/(3M−2)) utilization separator of
// Andersson, Baruah & Jonsson: on M processors, a task with U_i above the
// threshold is assigned the highest priority (the paper's HPQ level 99).
func RMUSThreshold(m int) float64 {
	if m <= 0 {
		return 0
	}
	fm := float64(m)
	return fm / (3*fm - 2)
}

// NeedsHighestPriority reports whether τ gets the reserved HPQ slot under
// RM-US on m processors.
func NeedsHighestPriority(t task.Task, m int) bool {
	return t.Utilization() > RMUSThreshold(m)
}

// maxIterations caps response-time fixed-point iterations; the iteration is
// monotonically non-decreasing, so exceeding a job's deadline is already
// conclusive long before this bound.
const maxIterations = 1 << 16

// responseTime computes the smallest fixed point of
//
//	R = own + Σ_j ⌈R/T_j⌉ · C_j
//
// over the interfering tasks, or false if R would exceed limit.
func responseTime(own time.Duration, interferers []task.Task, limit time.Duration) (time.Duration, bool) {
	r := own
	for iter := 0; iter < maxIterations; iter++ {
		next := own
		for _, hp := range interferers {
			jobs := ceilDiv(int64(r), int64(hp.Period))
			next += time.Duration(jobs) * hp.WCET()
		}
		if next > limit {
			return next, false
		}
		if next == r {
			return r, true
		}
		r = next
	}
	return r, false
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("analysis: non-positive period")
	}
	return (a + b - 1) / b
}

// ResponseTimes runs exact RM response-time analysis on a uniprocessor for
// the full WCETs C_i = m_i + w_i, returning the worst-case response time of
// each task in RM order. The second result is false if any task can miss
// its deadline.
func ResponseTimes(s *task.Set) ([]time.Duration, bool) {
	ordered := s.SortedByRM()
	out := make([]time.Duration, len(ordered))
	ok := true
	for i, t := range ordered {
		r, fits := responseTime(t.WCET(), ordered[:i], t.Deadline())
		out[i] = r
		if !fits {
			ok = false
		}
	}
	return out, ok
}

// Result is the outcome of the RMWP analysis for one task, in RM order.
type Result struct {
	Task task.Task
	// OptionalDeadline is the relative optional deadline OD_i.
	OptionalDeadline time.Duration
	// MandatoryResponse is the worst-case response time of the mandatory
	// part under interference from higher-priority mandatory and wind-up
	// parts.
	MandatoryResponse time.Duration
	// WindupResponse is the worst-case response time of the wind-up part.
	WindupResponse time.Duration
	// Schedulable reports whether the task meets the RMWP condition
	// MandatoryResponse ≤ OD_i with OD_i ≥ 0.
	Schedulable bool
}

// RMWP computes optional deadlines and the schedulability verdict for a task
// set under uniprocessor RMWP semi-fixed-priority scheduling. The returned
// results are in RM order. An error wrapping ErrUnschedulable is returned
// when any task fails, alongside the full per-task results.
func RMWP(s *task.Set) ([]Result, error) {
	if s == nil || s.Len() == 0 {
		return nil, task.ErrEmptyTaskSet
	}
	ordered := s.SortedByRM()
	results := make([]Result, len(ordered))
	var firstErr error
	for i, t := range ordered {
		res := Result{Task: t}
		// Wind-up response time under higher-priority interference. Within
		// the window before D_i the wind-up part can be delayed by
		// higher-priority mandatory AND wind-up parts.
		rw, wOK := responseTime(t.Windup, ordered[:i], t.Deadline())
		res.WindupResponse = rw
		// Mandatory response time from the release, under the same
		// higher-priority interference.
		rm, mOK := responseTime(t.Mandatory, ordered[:i], t.Deadline())
		res.MandatoryResponse = rm

		od := t.Deadline() - rw
		res.OptionalDeadline = od
		res.Schedulable = wOK && mOK && od >= 0 && rm <= od
		results[i] = res
		if !res.Schedulable && firstErr == nil {
			firstErr = fmt.Errorf("task %s: R^m=%v OD=%v: %w",
				t.Name, rm, od, ErrUnschedulable)
		}
	}
	return results, firstErr
}

// UtilizationSchedulable applies the Liu & Layland sufficient test to the
// task set's real-time utilization (C_i = m_i + w_i) on a uniprocessor.
func UtilizationSchedulable(s *task.Set) bool {
	return s.Utilization() <= LiuLaylandBound(s.Len())
}

// BreakdownUtilization scales all mandatory and wind-up parts of the set by
// a common factor and returns the largest factor (to within eps) at which
// the set remains RMWP-schedulable. It is the standard metric for comparing
// scheduling algorithms' headroom.
func BreakdownUtilization(s *task.Set, eps float64) float64 {
	if s == nil || s.Len() == 0 {
		return 0
	}
	lo, hi := 0.0, 1.0
	// Grow hi until unschedulable (cap at 64x).
	for schedulableAtScale(s, hi) && hi < 64 {
		lo = hi
		hi *= 2
	}
	for hi-lo > eps {
		mid := (lo + hi) / 2
		if schedulableAtScale(s, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

func schedulableAtScale(s *task.Set, scale float64) bool {
	scaled := make([]task.Task, 0, s.Len())
	for _, t := range s.Tasks {
		t.Mandatory = time.Duration(float64(t.Mandatory) * scale)
		t.Windup = time.Duration(float64(t.Windup) * scale)
		if t.Mandatory+t.Windup <= 0 || t.Mandatory+t.Windup > t.Period {
			return false
		}
		scaled = append(scaled, t)
	}
	set, err := task.NewSet(scaled...)
	if err != nil {
		return false
	}
	_, err = RMWP(set)
	return err == nil
}
