// Package sched drives scheduling algorithms over the simulated kernel and
// records their behaviour: the General (Liu & Layland) baseline, the P-RMWP
// semi-fixed-priority runner built on the RT-Seed middleware, the
// middleware-level G-RMWP runner for the partitioned-versus-global ablation
// of §IV-B, the many-task scaling workload, and execution trace recording for
// the paper's Fig. 3 remaining-execution-time curves. Every schedule comes
// from the kernel: each runner drives its tasks as kernel threads.
package sched

import (
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/trace"
)

// Segment is a half-open interval [From, To) during which a thread ran.
type Segment struct {
	From, To engine.Time
}

// Duration returns the segment length.
func (s Segment) Duration() time.Duration { return s.To.Sub(s.From) }

// Recorder collects per-thread run segments by tapping the kernel's trace
// stream. It keys by trace TID, so it works identically whether it observes
// the tracer live or replays records from a decoded trace file.
type Recorder struct {
	running  map[uint32]engine.Time
	segments map[uint32][]Segment
}

// NewRecorder attaches a recorder to the kernel's tracer, installing a
// tracer without a sink if the kernel has none. The recorder observes every
// record live (trace.Tap), so it needs no stored trace: on a sinkless
// tracer it is the only reader.
func NewRecorder(k *kernel.Kernel) *Recorder {
	tr := k.Trace()
	if tr == nil {
		tr = trace.New(trace.Config{CPUs: k.Machine().Topology().NumHWThreads()})
		k.SetTrace(tr)
	}
	r := &Recorder{
		running:  make(map[uint32]engine.Time),
		segments: make(map[uint32][]Segment),
	}
	tr.Tap(r.Observe)
	return r
}

// Observe consumes one trace record. It is exported so a recorder can also
// be replayed over the records of a decoded trace file.
func (r *Recorder) Observe(rec trace.Record) {
	//rtseed:partial-ok the recorder tracks run segments only; middleware and timer kinds are irrelevant here
	switch rec.Kind {
	case trace.KindDispatch:
		r.running[rec.TID] = rec.At
	case trace.KindPreempt, trace.KindBlock, trace.KindSleep, trace.KindExit:
		if from, ok := r.running[rec.TID]; ok {
			delete(r.running, rec.TID)
			if rec.At > from {
				r.segments[rec.TID] = append(r.segments[rec.TID], Segment{From: from, To: rec.At})
			}
		}
	}
}

// Segments returns the recorded run segments of t in time order.
func (r *Recorder) Segments(t *kernel.Thread) []Segment {
	segs := r.segments[uint32(t.ID())]
	out := make([]Segment, len(segs))
	copy(out, segs)
	return out
}

// Executed returns the CPU time t consumed within [from, to).
func (r *Recorder) Executed(t *kernel.Thread, from, to engine.Time) time.Duration {
	var sum time.Duration
	for _, s := range r.segments[uint32(t.ID())] {
		lo, hi := s.From, s.To
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if hi > lo {
			sum += hi.Sub(lo)
		}
	}
	return sum
}

// TracePoint is one breakpoint of a remaining-execution-time curve R_i(t)
// (paper Fig. 3): at time T the task has R remaining.
type TracePoint struct {
	T time.Duration
	R time.Duration
}

// RemainingTime builds the R_i(t) curve for a budget that starts at `budget`
// at time `from` and is drained by the thread's execution until exhausted or
// until `to`. Each run segment contributes a linear decrease; the curve is
// emitted as its breakpoints.
func (r *Recorder) RemainingTime(t *kernel.Thread, from, to engine.Time, budget time.Duration) []TracePoint {
	points := []TracePoint{{T: from.Duration(), R: budget}}
	remaining := budget
	for _, s := range r.segments[uint32(t.ID())] {
		if s.To <= from || s.From >= to || remaining <= 0 {
			continue
		}
		lo, hi := s.From, s.To
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		run := hi.Sub(lo)
		if run > remaining {
			hi = lo.Add(remaining)
			run = remaining
		}
		// Flat until the segment starts, then linear decrease.
		points = append(points, TracePoint{T: lo.Duration(), R: remaining})
		remaining -= run
		points = append(points, TracePoint{T: hi.Duration(), R: remaining})
		if remaining <= 0 {
			break
		}
	}
	return points
}
