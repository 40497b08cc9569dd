package sched

import (
	"fmt"
	"sort"
	"time"

	"rtseed/internal/task"
	"rtseed/internal/trace"
)

// GlobalResult summarizes an idealized global semi-fixed-priority (G-RMWP)
// simulation. The paper rejects global scheduling for middleware because
// task migration causes high overheads and middleware lacks fine-grained
// processor control (§IV-B); this simulator quantifies the migration count
// that argument rests on.
type GlobalResult struct {
	// Migrations counts how often a job resumed on a different processor
	// than it last ran on.
	Migrations int
	// Preemptions counts job preemptions.
	Preemptions int
	// DeadlineMisses counts jobs that finished after their deadline,
	// accounting for the per-migration penalty.
	DeadlineMisses int
	// Jobs is the number of jobs simulated.
	Jobs int
}

// globalJob is one job instance in the quantum-driven global simulator.
type globalJob struct {
	taskIdx   int
	release   time.Duration
	deadline  time.Duration
	remaining time.Duration // current phase's remaining execution
	phase     int           // 0 = mandatory, 1 = wind-up
	windup    time.Duration
	od        time.Duration // absolute optional deadline
	lastCPU   int
	ranBefore bool
}

// SimulateGRMWP runs an idealized global RMWP simulation of the task set on
// m processors for the given horizon, using a fixed scheduling quantum. At
// every quantum boundary the m highest-priority ready jobs run; a job that
// resumes on a different processor pays migrationPenalty of extra execution
// time — the mechanism behind global scheduling's overhead. Mandatory parts
// run from release; between mandatory completion and the optional deadline
// the job is off the run queue (its optional parts are not modelled — by
// Theorem 1 they never interfere); wind-up parts run from the optional
// deadline.
func SimulateGRMWP(s *task.Set, m int, horizon, quantum, migrationPenalty time.Duration) (GlobalResult, error) {
	if s == nil || s.Len() == 0 {
		return GlobalResult{}, task.ErrEmptyTaskSet
	}
	if m <= 0 || horizon <= 0 || quantum <= 0 {
		return GlobalResult{}, fmt.Errorf("sched: invalid global simulation parameters m=%d horizon=%v quantum=%v", m, horizon, quantum)
	}
	ordered := s.SortedByRM()
	ods := make([]time.Duration, len(ordered))
	for i, t := range ordered {
		// Idealized per-task optional deadline D − w (interference on the
		// wind-up is simulated directly).
		ods[i] = t.Deadline() - t.Windup
	}

	var res GlobalResult
	var active []*globalJob
	for now := time.Duration(0); now < horizon; now += quantum {
		// Release new jobs and start wind-up phases.
		for i, t := range ordered {
			if now%t.Period == 0 {
				res.Jobs++
				active = append(active, &globalJob{
					taskIdx:   i,
					release:   now,
					deadline:  now + t.Deadline(),
					remaining: t.Mandatory,
					phase:     0,
					windup:    t.Windup,
					od:        now + ods[i],
					lastCPU:   -1,
				})
			}
		}
		// Jobs whose optional deadline passed enter their wind-up phase.
		ready := ready(active, now)
		// RM priority: shorter period (lower taskIdx) first; FIFO by
		// release within a task.
		sort.SliceStable(ready, func(a, b int) bool {
			return ready[a].taskIdx < ready[b].taskIdx
		})
		// Run the top m jobs for one quantum.
		for cpu := 0; cpu < m && cpu < len(ready); cpu++ {
			j := ready[cpu]
			if j.ranBefore && j.lastCPU != cpu {
				res.Migrations++
				j.remaining += migrationPenalty
			}
			j.lastCPU = cpu
			j.ranBefore = true
			j.remaining -= quantum
			if j.remaining <= 0 {
				j.remaining = 0
				if j.phase == 0 {
					j.phase = 1 // waits for its optional deadline
				} else {
					j.phase = 2 // done
					if trace.MissedDeadline(now+quantum, j.deadline) {
						res.DeadlineMisses++
					}
				}
			}
		}
		// Preemption accounting: ready jobs beyond the top m that had run
		// before were preempted.
		for i := m; i < len(ready); i++ {
			if ready[i].ranBefore {
				res.Preemptions++
				ready[i].ranBefore = false // count once per preemption episode
			}
		}
		// Drop finished jobs.
		live := active[:0]
		for _, j := range active {
			if j.phase != 2 {
				live = append(live, j)
			}
		}
		active = live
	}
	return res, nil
}

// ready selects jobs eligible to run at time now: mandatory phases always,
// wind-up phases once their optional deadline passed (and transitions
// phase-1 jobs whose wind-up budget has not been loaded yet).
func ready(active []*globalJob, now time.Duration) []*globalJob {
	out := make([]*globalJob, 0, len(active))
	for _, j := range active {
		switch j.phase {
		case 0:
			if j.remaining > 0 {
				out = append(out, j)
			}
		case 1:
			if now >= j.od {
				if j.remaining == 0 && j.windup > 0 {
					j.remaining = j.windup
					j.windup = 0
				}
				if j.remaining > 0 {
					out = append(out, j)
				}
			}
		}
	}
	return out
}
