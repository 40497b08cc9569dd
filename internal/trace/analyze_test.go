package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"rtseed/internal/engine"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Add(0)
	h.Add(1)                // bucket 1: [1, 2)
	h.Add(3)                // bucket 2: [2, 4)
	h.Add(1024)             // bucket 11: [1024, 2048)
	h.Add(time.Millisecond) // 1e6 ns → bucket 20
	if h.N != 5 {
		t.Fatalf("N = %d", h.N)
	}
	for i, want := range map[int]uint64{0: 1, 1: 1, 2: 1, 11: 1, 20: 1} {
		if h.Buckets[i] != want {
			t.Fatalf("bucket %d = %d, want %d", i, h.Buckets[i], want)
		}
	}
	if h.Min != 0 || h.Max != time.Millisecond {
		t.Fatalf("min %v max %v", h.Min, h.Max)
	}
	if lo, hi := BucketBounds(11); lo != 1024 || hi != 2048 {
		t.Fatalf("bounds of bucket 11: [%v, %v)", lo, hi)
	}
	if want := (1 + 3 + 1024 + time.Millisecond) / 5; h.Mean() != want {
		t.Fatalf("mean %v, want %v", h.Mean(), want)
	}
	var b strings.Builder
	h.Format(&b, "  ")
	if strings.Count(b.String(), "\n") != 5 {
		t.Fatalf("format rendered:\n%s", b.String())
	}
}

func TestTaskNameStripping(t *testing.T) {
	cases := map[string]string{
		"a.mand":    "a",
		"a.opt0":    "a",
		"tau.opt12": "tau",
		"b.c.opt3":  "b.c",
		"solo":      "solo",
		"x.option":  "x.option", // not a part suffix
		"y.opt":     "y.opt",    // no index digits
		"z.mandy":   "z.mandy",
	}
	for in, want := range cases {
		if got := taskName(in); got != want {
			t.Fatalf("taskName(%q) = %q, want %q", in, got, want)
		}
	}
}

// synthTrace scripts one task "a" (threads a.mand tid 1 on cpu 0, a.opt0
// tid 2 on cpu 1) plus an interloper "hog" (tid 3): job 0 meets its
// deadline; job 1 is preempted by hog, its part is terminated at OD, and it
// misses by 2ms.
func synthTrace(t *testing.T) *Trace {
	t.Helper()
	var buf bytes.Buffer
	tr := New(Config{CPUs: 2, Sink: &buf})
	ms := func(d int) engine.Time { return engine.At(time.Duration(d) * time.Millisecond) }

	// Job 0: release 0, mand 0→5, opt completes, windup 8→10, deadline 20.
	tr.Emit(ms(0), 0, 1, KindJobRelease, 0)
	tr.Emit(ms(1), 0, 1, KindMandStart, 0)
	tr.Emit(ms(1), 0, 1, KindDispatch, 0)
	tr.Emit(ms(5), 0, 1, KindOptFork, 0)
	tr.Emit(ms(5), 1, 2, KindOptStart, PackJobPart(0, 0))
	tr.Emit(ms(5), 1, 2, KindDispatch, 0)
	tr.Emit(ms(7), 1, 2, KindOptEnd, PackJobPart(0, 0))
	tr.Emit(ms(7), 1, 2, KindBlock, 0)
	tr.Emit(ms(8), 0, 1, KindWindupStart, 0)
	tr.Emit(ms(10), 0, 1, KindJobEnd, 0)
	tr.Emit(ms(10), 0, 1, KindDeadlineMet, 0)
	tr.Emit(ms(10), 0, 1, KindSleep, 0)

	// Job 1: release 20, hog preempts the mandatory thread, part terminated
	// at OD, finish 42 vs deadline 40 → miss by 2ms.
	tr.Emit(ms(20), 0, 1, KindJobRelease, 1)
	tr.Emit(ms(21), 0, 1, KindMandStart, 1)
	tr.Emit(ms(21), 0, 1, KindDispatch, 0)
	tr.Emit(ms(23), 0, 1, KindPreempt, 0)
	tr.Emit(ms(23), 0, 3, KindDispatch, 0)
	tr.Emit(ms(27), 0, 3, KindSleep, 0)
	tr.Emit(ms(27), 0, 1, KindDispatch, 0)
	tr.Emit(ms(30), 0, 1, KindOptFork, 1)
	tr.Emit(ms(30), 1, 2, KindOptStart, PackJobPart(1, 0))
	tr.Emit(ms(35), 1, 2, KindTimerFire, 0)
	tr.Emit(ms(35), 1, 2, KindOptTerm, PackJobPart(1, 0))
	tr.Emit(ms(40), 0, 1, KindWindupStart, 1)
	tr.Emit(ms(42), 0, 1, KindJobEnd, 1)
	tr.Emit(ms(42), 0, 1, KindDeadlineMiss, PackMiss(1, 2*time.Millisecond))
	tr.Emit(ms(42), 0, 1, KindExit, 0)

	threads := []ThreadInfo{
		{TID: 1, CPU: 0, Priority: 90, Name: "a.mand"},
		{TID: 2, CPU: 1, Priority: 80, Name: "a.opt0"},
		{TID: 3, CPU: 0, Priority: 95, Name: "hog"},
	}
	if err := tr.Close(threads); err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return decoded
}

func TestAnalyzeTaskStats(t *testing.T) {
	a := Analyze(synthTrace(t))
	s := a.TaskByName("a")
	if s == nil {
		t.Fatalf("task a missing: %+v", a.Tasks)
	}
	if s.Jobs != 2 || s.Completed != 1 || s.Terminated != 1 || s.Discarded != 0 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.Response.N != 2 {
		t.Fatalf("response samples %d", s.Response.N)
	}
	// Job 0 response 10ms, job 1 response 22ms.
	if s.Response.Min != 10*time.Millisecond || s.Response.Max != 22*time.Millisecond {
		t.Fatalf("response min %v max %v", s.Response.Min, s.Response.Max)
	}
	// Release latency is 1ms for both jobs.
	if s.ReleaseLat.N != 2 || s.ReleaseLat.Max != time.Millisecond {
		t.Fatalf("release latency %+v", s.ReleaseLat)
	}
	if !a.NonEmpty() {
		t.Fatal("analysis should be non-empty")
	}
}

func TestAnalyzeMissAttribution(t *testing.T) {
	a := Analyze(synthTrace(t))
	if len(a.Misses) != 1 {
		t.Fatalf("misses %+v", a.Misses)
	}
	m := a.Misses[0]
	if m.Task != "a" || m.Job != 1 || m.Lateness != 2*time.Millisecond {
		t.Fatalf("miss %+v", m)
	}
	if len(m.OverranParts) != 1 || m.OverranParts[0] != 0 {
		t.Fatalf("overran parts %v", m.OverranParts)
	}
	if m.Preemptions != 1 {
		t.Fatalf("preemptions %d, want 1", m.Preemptions)
	}
	if m.Preemptor != "hog" {
		t.Fatalf("preemptor %q, want hog", m.Preemptor)
	}
}

func TestAnalyzeUtilization(t *testing.T) {
	a := Analyze(synthTrace(t))
	if len(a.CPUs) != 2 {
		t.Fatalf("cpu timelines %+v", a.CPUs)
	}
	if a.Span != engine.At(42*time.Millisecond) {
		t.Fatalf("span %v", a.Span)
	}
	cpu0 := a.CPUs[0]
	if cpu0.CPU != 0 {
		t.Fatalf("first timeline is cpu %d", cpu0.CPU)
	}
	// CPU0 busy: [1,10) [21,23) [23,27) [27,42) = 30ms of 42ms.
	var busy time.Duration
	for _, iv := range cpu0.Busy {
		busy += iv.To.Sub(iv.From)
	}
	if busy != 30*time.Millisecond {
		t.Fatalf("cpu0 busy %v, want 30ms", busy)
	}
	util := cpu0.Utilization(1, a.Span)
	if len(util) != 1 || util[0] < 0.70 || util[0] > 0.73 {
		t.Fatalf("utilization %v, want ~30/42", util)
	}
	// Degenerate inputs return zeros, not panics.
	if got := cpu0.Utilization(0, a.Span); len(got) != 0 {
		t.Fatalf("zero buckets -> %v", got)
	}
	if got := cpu0.Utilization(3, 0); got[0] != 0 {
		t.Fatalf("zero span -> %v", got)
	}
}

func TestAnalyzeEmptyTrace(t *testing.T) {
	a := Analyze(&Trace{})
	if a.NonEmpty() {
		t.Fatal("empty trace reported non-empty")
	}
	if len(a.Tasks) != 0 || len(a.Misses) != 0 || len(a.CPUs) != 0 {
		t.Fatalf("analysis %+v", a)
	}
}
