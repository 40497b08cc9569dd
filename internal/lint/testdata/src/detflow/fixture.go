// Package detflowfix is the detflow analyzer's fixture: nondeterministic
// values are flagged only when they reach a sink — a return, an escaping
// store, a channel send, or a trace emission.
package detflowfix

import (
	"math/rand"
	"os"
	"sort"
	"time"

	"rtseed/internal/trace"
)

type report struct {
	Elapsed time.Duration
	Label   string
}

// Flagged: wall clock into a returned result struct.
func measured() report {
	start := time.Now()
	r := report{Elapsed: time.Since(start)}
	return r // want `wall-clock value from time\.Since \(line \d+\) is returned to the caller`
}

// Flagged: wall clock stored through a pointer parameter.
func stamp(r *report, deadline time.Time) {
	r.Elapsed = time.Until(deadline) // want `wall-clock value from time\.Until \(line \d+\) is stored in r\.Elapsed`
}

// Flagged: wall clock stored into a field of a local struct that is then
// returned whole.
func stampedLocal() report {
	var r report
	r.Elapsed = time.Since(time.Time{})
	return r // want `wall-clock value from time\.Since \(line \d+\) is returned to the caller`
}

// Clean: only r.Elapsed carries the clock, and the label is returned.
func labelOnly() string {
	var r report
	r.Elapsed = time.Since(time.Time{})
	r.Label = "done"
	return r.Label
}

var mode string

// Flagged: environment read into a package variable.
func loadMode() {
	mode = os.Getenv("RTSEED_MODE") // want `environment-dependent value from os\.Getenv \(line \d+\) is stored in mode` `call to os\.Getenv reads the process environment`
}

// Flagged: wall clock stored into another package's variable.
func stampArgs() {
	os.Args = []string{time.Now().String()} // want `wall-clock value from time\.Now \(line \d+\) is stored in os\.Args, which outlives this call`
}

// Flagged: global rand into a return value, laundered through locals.
func jitter(n int) int {
	j := rand.Intn(n) // want `call to math/rand\.Intn uses the global math/rand source`
	k := j * 2
	return k // want `globally-seeded random value from math/rand\.Intn \(line \d+\) is returned to the caller`
}

// Flagged: map iteration order reaching a returned slice.
func unsortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out // want `map-iteration-ordered value from iteration over m \(line \d+\) is returned to the caller`
}

// Flagged: wall clock emitted to the trace.
func traceStamp(h *trace.Histogram, start time.Time) {
	h.Add(time.Since(start)) // want `wall-clock value from time\.Since \(line \d+\) is emitted to the trace via Add`
}

// Flagged: wall clock sent on a channel.
func publish(ch chan<- time.Time) {
	ch <- time.Now() // want `wall-clock value from time\.Now \(line \d+\) is sent on a channel`
}

// Accepted: the busy-wait pattern — the clock never escapes, so demoting
// this from the syntactic analyzer is the whole point of detflow.
func spinFor(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// Accepted: sorting re-establishes a deterministic order.
func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Accepted: order-insensitive reduction over a map.
func total(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}

// Accepted: aggregation into another map is order-insensitive.
func invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// Accepted: a locally seeded source is reproducible (rand.New is not the
// global source; Intn here is a method call on the local generator).
func seeded(seed int64, n int) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(n)
}

// Accepted escape hatch: a line-scoped waiver with a reason.
func waivedLine() time.Time {
	return time.Now() //rtseed:nondeterministic-ok fixture: wall clock feeds a log line
}

// Accepted escape hatch: a function-scoped waiver in the doc comment.
//
//rtseed:nondeterministic-ok fixture: measures real latency by design
func waivedFunc(release time.Time) time.Duration {
	return time.Since(release)
}
