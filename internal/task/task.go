// Package task defines the parallel-extended imprecise computation model of
// the paper (§II): periodic tasks whose computation is split into a
// mandatory part, a set of parallel optional parts, and a second mandatory
// (wind-up) part. The mandatory and wind-up parts are real-time; the
// parallel optional parts only improve quality of service and may be
// completed, terminated, or discarded independently.
package task

import (
	"errors"
	"fmt"
	"time"
)

// Task is one periodic parallel-extended imprecise task τ_i. The relative
// deadline D_i equals the period T_i (implicit-deadline model, paper §II-A).
type Task struct {
	// Name identifies the task in traces and reports.
	Name string
	// Mandatory is m_i, the WCET of the mandatory part.
	Mandatory time.Duration
	// Windup is w_i, the WCET of the wind-up part.
	Windup time.Duration
	// Optional holds the execution times o_{i,k} of the np_i parallel
	// optional parts. It may be empty (a pure Liu & Layland task).
	Optional []time.Duration
	// Period is T_i (= D_i).
	Period time.Duration
}

// Validate checks the structural constraints of the model.
func (t Task) Validate() error {
	switch {
	case t.Period <= 0:
		return fmt.Errorf("task %s: period %v must be positive", t.Name, t.Period)
	case t.Mandatory < 0 || t.Windup < 0:
		return fmt.Errorf("task %s: negative part length", t.Name)
	case t.Mandatory+t.Windup <= 0:
		return fmt.Errorf("task %s: mandatory+wind-up must be positive", t.Name)
	case t.Mandatory+t.Windup > t.Period:
		return fmt.Errorf("task %s: WCET %v exceeds period %v",
			t.Name, t.Mandatory+t.Windup, t.Period)
	}
	for k, o := range t.Optional {
		if o < 0 {
			return fmt.Errorf("task %s: optional part %d has negative length %v", t.Name, k, o)
		}
	}
	return nil
}

// WCET returns C_i = m_i + w_i. Optional parts are non-real-time and are
// excluded from the WCET by definition (paper §II-A).
func (t Task) WCET() time.Duration { return t.Mandatory + t.Windup }

// Deadline returns D_i = T_i.
func (t Task) Deadline() time.Duration { return t.Period }

// NumOptional returns np_i, the number of parallel optional parts.
func (t Task) NumOptional() int { return len(t.Optional) }

// Utilization returns U_i = C_i / T_i.
func (t Task) Utilization() float64 {
	return float64(t.WCET()) / float64(t.Period)
}

// OptionalUtilization returns U_i^o = Σ_k o_{i,k} / T_i, the QoS-side
// utilization of the parallel optional parts.
func (t Task) OptionalUtilization() float64 {
	var sum time.Duration
	for _, o := range t.Optional {
		sum += o
	}
	return float64(sum) / float64(t.Period)
}

// String implements fmt.Stringer.
func (t Task) String() string {
	return fmt.Sprintf("%s{m=%v, w=%v, np=%d, T=%v}",
		t.Name, t.Mandatory, t.Windup, len(t.Optional), t.Period)
}

// Uniform returns a task whose np parallel optional parts all have length o,
// the configuration of the paper's evaluation (§V-A: all o_{1,k} equal).
func Uniform(name string, m, w, o time.Duration, np int, period time.Duration) Task {
	opts := make([]time.Duration, np)
	for i := range opts {
		opts[i] = o
	}
	return Task{Name: name, Mandatory: m, Windup: w, Optional: opts, Period: period}
}

// ErrEmptyTaskSet is returned when an operation needs at least one task.
var ErrEmptyTaskSet = errors.New("task: empty task set")

// Set is a synchronous periodic task set Γ = {τ_1, ..., τ_n}: all tasks are
// released together at time zero.
type Set struct {
	Tasks []Task
}

// NewSet validates and returns a task set ordered as given.
func NewSet(tasks ...Task) (*Set, error) {
	if len(tasks) == 0 {
		return nil, ErrEmptyTaskSet
	}
	for _, t := range tasks {
		if err := t.Validate(); err != nil {
			return nil, err
		}
	}
	s := &Set{Tasks: make([]Task, len(tasks))}
	copy(s.Tasks, tasks)
	return s, nil
}

// MustNewSet is NewSet for statically-valid task sets.
func MustNewSet(tasks ...Task) *Set {
	s, err := NewSet(tasks...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns n, the number of tasks.
func (s *Set) Len() int { return len(s.Tasks) }

// Utilization returns Σ U_i (NOT divided by the processor count; see
// SystemUtilization).
func (s *Set) Utilization() float64 {
	u := 0.0
	for _, t := range s.Tasks {
		u += t.Utilization()
	}
	return u
}

// SystemUtilization returns U = (1/M) Σ U_i on M processors (paper §II-A).
func (s *Set) SystemUtilization(m int) float64 {
	if m <= 0 {
		return 0
	}
	return s.Utilization() / float64(m)
}

// SortedByRM returns the tasks in rate-monotonic order: shortest period
// first, ties broken by declaration order. The receiver is not modified.
func (s *Set) SortedByRM() []Task {
	out := make([]Task, len(s.Tasks))
	copy(out, s.Tasks)
	// Stable insertion sort: task sets are small and declaration-order
	// tie-breaking matters for deterministic priority assignment.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Period < out[j-1].Period; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Hyperperiod returns the least common multiple of all task periods, the
// natural simulation horizon for a synchronous task set.
func (s *Set) Hyperperiod() time.Duration {
	l := int64(1)
	for _, t := range s.Tasks {
		l = lcm(l, int64(t.Period))
	}
	return time.Duration(l)
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int64) int64 {
	return a / gcd(a, b) * b
}
