package sched

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rtseed/internal/assign"
	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/partition"
	"rtseed/internal/task"
	"rtseed/internal/trace"
)

// Ground truth: the per-task counts the trace analyzer derives from a
// file-backed trace must exactly match the simulator's own Stats — jobs,
// completed/terminated/discarded parts, and deadline misses. The
// starvation config is used on purpose: it produces nonzero misses, so the
// miss path is exercised, not just asserted zero.
func TestTraceCountsMatchStats(t *testing.T) {
	k := newSim(t)
	var buf bytes.Buffer
	// A small ring forces mid-run spills; file-backed mode must still
	// retain every record.
	k.SetTrace(trace.New(trace.Config{
		CPUs:     k.Machine().Topology().NumHWThreads(),
		Capacity: 64,
		Sink:     &buf,
	}))
	set := task.MustNewSet(
		task.Uniform("fast", ms(5), ms(5), ms(500), 2, ms(50)),
		task.Uniform("slow", ms(10), ms(10), ms(500), 2, ms(100)),
	)
	sys, err := NewPRMWP(k, PRMWPConfig{
		Set:            set,
		Horizon:        ms(300),
		Policy:         assign.OneByOne,
		Heuristic:      partition.FirstFit,
		OverheadMargin: ms(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	k.Run()
	if err := k.Trace().Close(k.ThreadInfos()); err != nil {
		t.Fatal(err)
	}

	decoded, err := trace.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if decoded.TotalLost() != 0 {
		t.Fatalf("file-backed trace lost %d records", decoded.TotalLost())
	}
	a := trace.Analyze(decoded)
	if !a.NonEmpty() {
		t.Fatal("analysis is empty")
	}

	stats := sys.Stats()
	var missTotal int
	for name, st := range stats {
		ts := a.TaskByName(name)
		if ts == nil {
			t.Fatalf("task %s missing from trace: %+v", name, a.Tasks)
		}
		if ts.Jobs != st.Jobs {
			t.Errorf("%s: trace jobs %d, stats %d", name, ts.Jobs, st.Jobs)
		}
		if ts.Completed != st.CompletedParts {
			t.Errorf("%s: trace completed %d, stats %d", name, ts.Completed, st.CompletedParts)
		}
		if ts.Terminated != st.TerminatedParts {
			t.Errorf("%s: trace terminated %d, stats %d", name, ts.Terminated, st.TerminatedParts)
		}
		if ts.Discarded != st.DiscardedParts {
			t.Errorf("%s: trace discarded %d, stats %d", name, ts.Discarded, st.DiscardedParts)
		}
		if ts.Misses != st.DeadlineMisses {
			t.Errorf("%s: trace misses %d, stats %d", name, ts.Misses, st.DeadlineMisses)
		}
		missTotal += st.DeadlineMisses
	}
	if missTotal == 0 {
		t.Fatal("starvation config should produce misses; the miss path went untested")
	}
	if len(a.Misses) != missTotal {
		t.Fatalf("attributed %d misses, stats say %d", len(a.Misses), missTotal)
	}
	for _, m := range a.Misses {
		if m.Lateness <= 0 {
			t.Fatalf("miss with non-positive lateness: %+v", m)
		}
	}
}

// A Recorder replayed over a decoded trace file reconstructs the same
// segments as the live tap.
func TestRecorderReplayFromFile(t *testing.T) {
	k := newSim(t)
	var buf bytes.Buffer
	k.SetTrace(trace.New(trace.Config{CPUs: k.Machine().Topology().NumHWThreads(), Sink: &buf}))
	live := NewRecorder(k)
	th := k.MustNewBodyThread(kernel.ThreadConfig{Name: "t", Priority: 50, CPU: 0},
		actions(kernel.Compute(ms(10)), kernel.Sleep(ms(10)), kernel.Compute(ms(10))))
	th.Start()
	k.Run()

	if err := k.Trace().Close(k.ThreadInfos()); err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	replay := &Recorder{
		running:  make(map[uint32]engine.Time),
		segments: make(map[uint32][]Segment),
	}
	for _, rec := range decoded.Records {
		replay.Observe(rec)
	}
	want := live.Segments(th)
	got := replay.Segments(th)
	if len(got) != len(want) {
		t.Fatalf("replayed %d segments, live saw %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("segment %d: replay %+v, live %+v", i, got[i], want[i])
		}
	}
}

// Golden guard for the Recorder→trace migration: the Gantt chart and raw
// segments of a fixed P-RMWP scenario, captured before the Recorder was
// rebuilt on the trace stream, must stay byte-identical.
const goldenGantt = `       0s ... 120ms (2.5ms per column)
a.mand ####+...........+##.####+...........+##.........
a.opt0 ....############+.......############+...........
a.opt1 ......###########.............#######...........
b.mand ######+.................######+.................
a.mand 28µs 10.074ms
a.mand 42.232575ms 47.232575ms
a.mand 50.055ms 60.113ms
a.mand 92.232575ms 97.284575ms
a.opt0 10.089575ms 40.200575ms
a.opt0 60.128575ms 90.239575ms
a.opt1 15.043575ms 42.223ms
a.opt1 75.070575ms 92.223ms
b.mand 28µs 15.028ms
b.mand 60.055ms 75.055ms
`

func TestGanttGoldenUnchanged(t *testing.T) {
	model := machine.DefaultCostModel()
	model.JitterFrac = 0
	m, err := machine.New(machine.Topology{Cores: 4, ThreadsPerCore: 4}, machine.NoLoad, model, 3)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(engine.New(), m)
	rec := NewRecorder(k)
	set := task.MustNewSet(
		task.Uniform("a", ms(10), ms(5), ms(30), 2, ms(50)),
		task.Uniform("b", ms(10), ms(5), 0, 0, ms(60)),
	)
	sys, err := NewPRMWP(k, PRMWPConfig{
		Set:            set,
		Horizon:        ms(120),
		Policy:         assign.OneByOne,
		Heuristic:      partition.WorstFit,
		OverheadMargin: ms(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	k.Run()

	pa, pb := sys.Processes["a"], sys.Processes["b"]
	threads := append([]*kernel.Thread{pa.MandatoryThread()}, pa.OptionalThreads()...)
	threads = append(threads, pb.MandatoryThread())

	var b strings.Builder
	b.WriteString(Gantt(rec, threads, engine.At(0), engine.At(ms(120)), 48))
	for _, th := range threads {
		for _, s := range rec.Segments(th) {
			fmt.Fprintf(&b, "%s %v %v\n", th.Name(), s.From, s.To)
		}
	}
	if got := b.String(); got != goldenGantt {
		t.Fatalf("schedule diverged from the pre-migration golden.\ngot:\n%s\nwant:\n%s", got, goldenGantt)
	}
}
