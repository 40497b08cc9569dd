package cluster

import (
	"time"

	"rtseed/internal/analysis"
	"rtseed/internal/task"
)

// inflate returns t with the admission overhead budget folded into both
// real-time parts, so the response-time analysis prices the kernel costs
// each part pays (dispatch, timer interrupt, reprogram, jitter).
func inflate(t task.Task, margin time.Duration) task.Task {
	t.Mandatory += margin
	t.Windup += margin
	return t
}

// coreState is one core's admission state: the incremental P-RMWP analysis
// of its inflated tasks, plus their utilization for a cheap pre-check.
type coreState struct {
	rmwp analysis.IncrementalRMWP
	util float64
}

// tryInsert admits t, of utilization u, onto the core if the augmented
// list passes the P-RMWP test, returning its RM position. Ties in period go
// after the earlier-admitted tasks, which keep their higher priority,
// matching RMBandPriorities' stable tie-break at simulation build.
func (c *coreState) tryInsert(t task.Task, u float64) (int, bool) {
	if c.util+u > 1 {
		return 0, false
	}
	pos, ok := c.rmwp.Insert(t)
	if ok {
		c.util += u
	}
	return pos, ok
}

// machineState is one machine's admission-control state: per-core task
// lists plus machine totals the routing policies order by.
type machineState struct {
	cores   []coreState
	util    float64 // sum of admitted inflated utilizations
	clients int
	tasks   int

	placeBuf []placement // current client's placements, for rollback
	coreBuf  []int       // current client's core per task
}

func newMachineState(cores int) *machineState {
	return &machineState{cores: make([]coreState, cores)}
}

// placement records where one task landed, for rollback.
type placement struct {
	core, pos int
	util      float64
}

// admit places every task of set onto the machine's cores (first-fit over
// cores, each core checked with the exact incremental P-RMWP test on
// inflated copies) or leaves the machine unchanged. On success it returns
// the core index of each task, parallel to set.Tasks; the slice is reused
// by the next call.
func (m *machineState) admit(set *task.Set, margin time.Duration) ([]int, bool) {
	m.placeBuf = m.placeBuf[:0]
	m.coreBuf = m.coreBuf[:0]

	setU := 0.0
	ok := true
	for _, raw := range set.Tasks {
		t := inflate(raw, margin)
		if t.WCET() > t.Period {
			ok = false
			break
		}
		setU += t.Utilization()
	}
	if ok && m.util+setU > float64(len(m.cores)) {
		ok = false
	}
	if ok {
		for _, raw := range set.Tasks {
			t := inflate(raw, margin)
			u := t.Utilization()
			placed := false
			for ci := range m.cores {
				if pos, fit := m.cores[ci].tryInsert(t, u); fit {
					m.placeBuf = append(m.placeBuf, placement{core: ci, pos: pos, util: u})
					m.coreBuf = append(m.coreBuf, ci)
					placed = true
					break
				}
			}
			if !placed {
				ok = false
				break
			}
		}
	}
	if !ok {
		// Roll back in reverse insertion order: each recorded position is
		// valid once every later insert has been removed. The utilization
		// comes off by subtraction, so it may keep a rounding residue.
		for i := len(m.placeBuf) - 1; i >= 0; i-- {
			p := m.placeBuf[i]
			c := &m.cores[p.core]
			c.util -= p.util
			c.rmwp.Remove(p.pos)
		}
		return nil, false
	}
	m.util += setU
	m.clients++
	m.tasks += len(set.Tasks)
	return m.coreBuf, true
}
