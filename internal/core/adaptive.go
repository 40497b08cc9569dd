package core

import "time"

// Adaptive implements the paper's concluding guidance in code: "traders
// should choose an appropriate number of parallel optional parts by
// considering the overhead associated with beginning and ending the
// processes". The controller bounds the observed ending overhead (the
// wind-up start's lag behind the optional deadline) by adjusting how many
// parallel optional parts are signalled each job, AIMD-style: multiplicative
// decrease when the lag exceeds the budget, additive increase while there is
// headroom, one part at a time down to a floor of one part. Unsignalled
// parts are discarded, exactly as the protocol discards parts it has no
// time for.
type Adaptive struct {
	// EndingBudget is the largest acceptable wind-up lag behind the
	// optional deadline.
	EndingBudget time.Duration
}

// next returns the part count for the next job given the lag just observed.
func (a *Adaptive) next(current, max int, lag time.Duration) int {
	switch {
	case lag > a.EndingBudget:
		current = current * 3 / 4
	case lag < a.EndingBudget/2:
		current++
	}
	if current < 1 {
		current = 1
	}
	if current > max {
		current = max
	}
	return current
}

// ActiveParts returns how many parallel optional parts the process is
// currently signalling per job (always NumOptional without a controller).
func (p *Process) ActiveParts() int { return p.activeParts }
