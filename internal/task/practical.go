package task

import (
	"fmt"
	"time"
)

// Section is one stage of a practical imprecise task: a mandatory part
// followed by parallel optional parts that refine it.
type Section struct {
	// Mandatory is the stage's mandatory WCET.
	Mandatory time.Duration
	// Optional holds the stage's parallel optional part lengths.
	Optional []time.Duration
}

// PracticalTask is the practical imprecise computation model with multiple
// mandatory parts — the paper's stated future work (§VII, citing Chishiro &
// Yamasaki, ISORC 2013): a job is a sequence of sections, each a mandatory
// part followed by parallel optional parts with a per-section optional
// deadline, closed by a single wind-up part. With one section it reduces to
// the parallel-extended imprecise computation model.
type PracticalTask struct {
	Name     string
	Sections []Section
	// Windup is the final wind-up part's WCET.
	Windup time.Duration
	// Period is T = D.
	Period time.Duration
}

// Validate checks the structural constraints.
func (t PracticalTask) Validate() error {
	if len(t.Sections) == 0 {
		return fmt.Errorf("task %s: practical task needs at least one section", t.Name)
	}
	if t.Period <= 0 {
		return fmt.Errorf("task %s: period %v must be positive", t.Name, t.Period)
	}
	if t.Windup < 0 {
		return fmt.Errorf("task %s: negative wind-up", t.Name)
	}
	var mandatory time.Duration
	for i, s := range t.Sections {
		if s.Mandatory <= 0 {
			return fmt.Errorf("task %s: section %d mandatory must be positive", t.Name, i)
		}
		for k, o := range s.Optional {
			if o < 0 {
				return fmt.Errorf("task %s: section %d optional %d negative", t.Name, i, k)
			}
		}
		mandatory += s.Mandatory
	}
	if mandatory+t.Windup > t.Period {
		return fmt.Errorf("task %s: Σm+w = %v exceeds period %v", t.Name, mandatory+t.Windup, t.Period)
	}
	return nil
}

// TotalMandatory returns Σ_j m_j.
func (t PracticalTask) TotalMandatory() time.Duration {
	var sum time.Duration
	for _, s := range t.Sections {
		sum += s.Mandatory
	}
	return sum
}

// WCET returns Σ_j m_j + w: the real-time execution demand.
func (t PracticalTask) WCET() time.Duration { return t.TotalMandatory() + t.Windup }

// Utilization returns WCET/T.
func (t PracticalTask) Utilization() float64 { return float64(t.WCET()) / float64(t.Period) }

// NumOptional returns the total number of parallel optional parts across
// sections.
func (t PracticalTask) NumOptional() int {
	n := 0
	for _, s := range t.Sections {
		n += len(s.Optional)
	}
	return n
}

// Flatten collapses the practical task into an ordinary parallel-extended
// imprecise task with m = Σ m_j. Under semi-fixed-priority scheduling the
// mandatory parts of all sections execute back to back at the mandatory
// priority whenever every section's optional window is exhausted, so the
// flattened task has the same worst-case real-time interference pattern —
// the RMWP analysis (and the optional-deadline calculation) applies to it
// unchanged.
func (t PracticalTask) Flatten() Task {
	opts := make([]time.Duration, 0, t.NumOptional())
	for _, s := range t.Sections {
		opts = append(opts, s.Optional...)
	}
	return Task{
		Name:      t.Name,
		Mandatory: t.TotalMandatory(),
		Windup:    t.Windup,
		Optional:  opts,
		Period:    t.Period,
	}
}

// SectionDeadlines splits the interval from the release to the (relative)
// task optional deadline od into per-section optional deadlines: each
// section's window covers its mandatory part plus a share of the remaining
// slack proportional to its optional workload (even split when no section
// has optional work). The returned deadlines are positive, relative to the
// release, strictly increasing, and the last equals od.
func (t PracticalTask) SectionDeadlines(od time.Duration) ([]time.Duration, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	mandatory := t.TotalMandatory()
	if od < mandatory {
		return nil, fmt.Errorf("task %s: optional deadline %v below total mandatory %v",
			t.Name, od, mandatory)
	}
	if od > t.Period {
		return nil, fmt.Errorf("task %s: optional deadline %v beyond period %v", t.Name, od, t.Period)
	}
	slack := od - mandatory
	var totalOpt time.Duration
	for _, s := range t.Sections {
		for _, o := range s.Optional {
			totalOpt += o
		}
	}
	out := make([]time.Duration, len(t.Sections))
	var cursor time.Duration
	for i, s := range t.Sections {
		var share time.Duration
		switch {
		case totalOpt > 0:
			var sectionOpt time.Duration
			for _, o := range s.Optional {
				sectionOpt += o
			}
			share = time.Duration(float64(slack) * float64(sectionOpt) / float64(totalOpt))
		default:
			share = slack / time.Duration(len(t.Sections))
		}
		cursor += s.Mandatory + share
		out[i] = cursor
	}
	// Absorb rounding so the final section deadline is exactly od.
	out[len(out)-1] = od
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			out[i] = out[i-1] + 1
		}
	}
	if out[len(out)-1] > od {
		return nil, fmt.Errorf("task %s: section windows do not fit optional deadline %v", t.Name, od)
	}
	return out, nil
}
