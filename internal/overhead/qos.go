package overhead

import (
	"time"

	"rtseed/internal/assign"
	"rtseed/internal/core"
	"rtseed/internal/machine"
	"rtseed/internal/sweep"
)

// QoSPoint quantifies the trade-off the paper's conclusion describes:
// adding parallel optional parts buys more analysis work per job, but the
// O(np) beginning/ending overheads delay the trading decision.
type QoSPoint struct {
	NumParts int
	// UsefulWork is the mean optional execution time achieved per job,
	// summed over all parts — the QoS the trader actually gets.
	UsefulWork time.Duration
	// DecisionLatency is the mean wind-up completion time relative to the
	// release: how stale the trading decision is.
	DecisionLatency time.Duration
	// DeadlineMisses counts jobs that finished past the period.
	DeadlineMisses int
}

// QoSSweep runs the evaluation task over a set of np values under one load
// and policy, measuring useful optional work and decision latency per job.
// Every part overruns (the paper's worst case), so useful work grows with
// the parallelism while the O(np) overheads push the decision later — the
// knee is the "appropriate number of parallel optional parts".
//
// The np cells are independent simulations and run concurrently on up to
// workers goroutines (<= 0 selects GOMAXPROCS); the curve is identical for
// any worker count.
func QoSSweep(load machine.Load, policy assign.Policy, nps []int, jobs int, seed uint64, workers int) ([]QoSPoint, error) {
	if len(nps) == 0 {
		nps = NumPartsSweep()
	}
	if jobs <= 0 {
		jobs = 20
	}
	return sweep.Map(workers, len(nps), func(i int) (QoSPoint, error) {
		return qosCell(load, policy, nps[i], jobs, seed)
	})
}

// qosCell measures one np operating point.
func qosCell(load machine.Load, policy assign.Policy, np, jobs int, seed uint64) (QoSPoint, error) {
	p, err := simulate(Config{Load: load, Policy: policy, NumParts: np, Jobs: jobs, Seed: seed}, core.Probes{})
	if err != nil {
		return QoSPoint{}, err
	}

	var useful, latency time.Duration
	misses := 0
	recs := p.Records()
	for _, rec := range recs {
		for _, part := range rec.Parts {
			useful += part.Executed
		}
		latency += rec.Finish - rec.Release
		if !rec.Met() {
			misses++
		}
	}
	n := time.Duration(len(recs))
	return QoSPoint{
		NumParts:        np,
		UsefulWork:      useful / n,
		DecisionLatency: latency / n,
		DeadlineMisses:  misses,
	}, nil
}
