// Package detcallsfix is the fixture for detflow's call-site rule: host
// timers, global rand draws, wall-clock seeds and environment reads are
// flagged at the call, and the clean and waived functions show what passes.
// A call whose value also reaches a sink carries both rules' findings.
package detcallsfix

import (
	"math/rand"
	"os"
	"time"
)

// Flagged pattern 1: blocking on or arming host timers.
func hostTimers(d time.Duration) {
	time.Sleep(d)         // want `time\.Sleep`
	t := time.NewTimer(d) // want `time\.NewTimer`
	defer t.Stop()
	<-time.After(d)        // want `time\.After`
	k := time.NewTicker(d) // want `time\.NewTicker`
	k.Stop()
}

// Taint rule only: reading the clock is no call-site finding, but the value
// reaching the caller is.
func readClock() time.Time {
	return time.Now() // want `wall-clock value from time\.Now \(line \d+\) is returned to the caller`
}

// Flagged pattern 2: the process-global math/rand source.
func globalRand(n int) int {
	rand.Shuffle(n, func(i, j int) {}) // want `global math/rand`
	return rand.Intn(n)                // want `global math/rand` `random value from math/rand\.Intn \(line \d+\) is returned`
}

// Clean: a locally seeded source is reproducible.
func seededRand(seed int64, n int) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(n)
}

// Flagged pattern 3: environment-dependent behavior.
func envBranch() bool {
	if os.Getenv("RTSEED_FAST") != "" { // want `environment`
		return true
	}
	_, ok := os.LookupEnv("RTSEED_TRACE") // want `environment`
	return ok                             // want `environment-dependent value from os\.LookupEnv \(line \d+\) is returned`
}

// Accepted escape hatch: a line-scoped waiver with a reason.
func waivedLine(d time.Duration) {
	time.Sleep(d) //rtseed:nondeterministic-ok fixture: pacing a host-facing demo loop
}

// Accepted escape hatch: a function-scoped waiver in the doc comment.
//
//rtseed:nondeterministic-ok fixture: arms a real timer by design
func waivedFunc(d time.Duration) *time.Timer {
	return time.NewTimer(d)
}

// Clean sampling idiom: a seeded inverse-CDF sampler is a pure function of
// (seed, shape) — the workload generator's pattern.
func inverseCDF(seed int64, shape float64) float64 {
	r := rand.New(rand.NewSource(seed))
	u := r.Float64()
	x := 1.0
	for i := 0; i < 8; i++ { // fixed-point refinement, still deterministic
		x = u * shape * x
	}
	return x
}

// Flagged sampling idiom: drawing inter-arrival gaps from the process-global
// source ties the workload to run order.
func globalGap() float64 {
	return rand.ExpFloat64() // want `global math/rand` `random value from math/rand\.ExpFloat64 \(line \d+\) is returned`
}

// Flagged sampling idiom: a wall-clock seed makes every run a different
// population even though the source itself is local.
func clockSeeded(n int) int {
	r := rand.New(rand.NewSource(time.Now().UnixNano())) // want `wall-clock seed`
	return r.Intn(n)                                     // want `wall-clock value from time\.Now \(line \d+\) is returned`
}
