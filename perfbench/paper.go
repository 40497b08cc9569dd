package main

import (
	"fmt"
	"sort"
	"time"

	"rtseed/internal/assign"
	"rtseed/internal/core"
	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/task"
	"rtseed/internal/trace"
)

// The paper's §V-A task at np=228 on the Xeon Phi 3120A under CPU load,
// built as overhead.Run builds it. Every optional part (1 s) overruns the
// optional deadline (750 ms), so each job pays the worst-case termination
// path of all 228 parts.
const (
	paperParts     = 228
	paperPeriod    = time.Second
	paperMandatory = 250 * time.Millisecond
	paperWindup    = 150 * time.Millisecond
	paperOD        = 750 * time.Millisecond
	paperOptional  = time.Second

	// paperJobsPerOp is how many 1 s job periods one op advances.
	paperJobsPerOp = 20
	// paperWarmOps ops run in setup, before timing starts.
	paperWarmOps = 2
)

// countSink is the trace spill target: it counts bytes and keeps none, as
// a trace file on a fast disk would cost the simulator nothing but the
// encode.
type countSink struct{ n int64 }

func (s *countSink) Write(p []byte) (int, error) {
	s.n += int64(len(p))
	return len(p), nil
}

// paperProbes sums the four protocol overheads of Fig. 9 (Δm, Δs, Δb, Δe)
// over all jobs, in simulated time, and counts jobs that reached wind-up.
// With sample set, it also records the engine's pending-event count at the
// end of each job's signal loop, in the optional phase; at op boundaries
// only the next release is queued.
type paperProbes struct {
	sum     [4]time.Duration
	n       [4]int
	blockAt engine.Time
	windups int

	eng     *engine.Engine
	sample  bool
	pending []float64
}

func (pp *paperProbes) add(k int, d time.Duration) {
	pp.sum[k] += d
	pp.n[k]++
}

func (pp *paperProbes) probes() core.Probes {
	return core.Probes{
		OnRelease: func(_ int, release, start engine.Time) { pp.add(0, start.Sub(release)) },
		OnMandatoryBlock: func(_ int, at engine.Time) {
			pp.blockAt = at
		},
		OnOptionalStart: func(_, part int, at engine.Time) {
			if part == 0 {
				pp.add(1, at.Sub(pp.blockAt))
			}
		},
		OnSignalLoop: func(_ int, start, end engine.Time) {
			pp.add(2, end.Sub(start))
			if pp.sample {
				pp.pending = append(pp.pending, float64(pp.eng.Pending()))
			}
		},
		OnWindupStart: func(_ int, od, start engine.Time) {
			pp.add(3, start.Sub(od))
			pp.windups++
		},
	}
}

// meanUs is overhead k's mean in simulated µs.
func (pp *paperProbes) meanUs(k int) float64 {
	if pp.n[k] == 0 {
		return 0
	}
	return float64(pp.sum[k]) / float64(pp.n[k]) / 1e3
}

// paperSys is one built paper-np228 system.
type paperSys struct {
	eng   *engine.Engine
	proc  *core.Process
	tr    *trace.Tracer // nil when built without a tracer
	sink  *countSink
	probe *paperProbes
	until engine.Time // the instant the system has been advanced to
}

// buildPaper builds the system for jobs jobs. With withTracer the
// simulator tracer is attached and spills to a counting sink; tap, when
// non-nil, observes every record.
func buildPaper(rec *recorder, seed uint64, jobs int, withTracer bool, tap func(trace.Record)) (*paperSys, error) {
	topo := machine.XeonPhi3120A()
	s := &paperSys{probe: &paperProbes{}}
	var mach *machine.Machine
	var k *kernel.Kernel
	var err error
	rec.do("machine.New", func() { mach, err = machine.New(topo, machine.CPULoad, machine.DefaultCostModel(), seed) })
	if err != nil {
		return nil, err
	}
	rec.do("kernel.New", func() {
		s.eng = engine.New()
		k = kernel.New(s.eng, mach)
	})
	s.probe.eng = s.eng
	if withTracer {
		rec.do("trace.New", func() {
			s.sink = &countSink{}
			s.tr = trace.New(trace.Config{CPUs: topo.NumHWThreads(), Sink: s.sink})
			if tap != nil {
				s.tr.Tap(tap)
			}
			k.SetTrace(s.tr)
		})
	}
	cpus, err := assign.HWThreads(topo, assign.OneByOne, paperParts)
	if err != nil {
		return nil, err
	}
	rec.do("core.NewProcess", func() {
		s.proc, err = core.NewProcess(k, core.Config{
			Task:              task.Uniform("tau1", paperMandatory, paperWindup, paperOptional, paperParts, paperPeriod),
			MandatoryPriority: 90,
			MandatoryCPU:      0,
			OptionalCPUs:      cpus,
			OptionalDeadline:  paperOD,
			Jobs:              jobs,
			Termination:       core.SigjmpTermination{},
			Probes:            s.probe.probes(),
		})
	})
	if err != nil {
		return nil, err
	}
	s.proc.Start()
	return s, nil
}

// advance runs the system through the next n job periods with
// engine.RunUntil — never kernel.RunUntil, which shuts the kernel down —
// and checks every job in them reached its wind-up part.
func (s *paperSys) advance(n int) error {
	s.until = s.until.Add(time.Duration(n) * paperPeriod)
	s.eng.RunUntil(s.until)
	if want := int(s.until.Duration() / paperPeriod); s.probe.windups != want {
		return fmt.Errorf("%d jobs reached wind-up by %v, want %d", s.probe.windups, s.until, want)
	}
	return nil
}

// paperOutcome is the modelled outcome of a run, read once at its end.
type paperOutcome struct {
	records []task.JobRecord
	stats   task.Stats
	resp    []float64 // release to wind-up end, simulated ms, ascending
}

func (s *paperSys) outcome(rec *recorder) paperOutcome {
	var o paperOutcome
	rec.do("core.Process.Records", func() { o.records = s.proc.Records() })
	rec.do("task.Summarize", func() { o.stats = task.Summarize(o.records) })
	o.resp = make([]float64, len(o.records))
	for i, j := range o.records {
		o.resp[i] = float64(j.Finish-j.Release) / 1e6
	}
	sort.Float64s(o.resp)
	return o
}

// digest covers every job record, the summary and the probe sums — the
// modelled outcome — and no simulator-internal count.
func (s *paperSys) digest(o paperOutcome) string {
	d := newDigest()
	for _, j := range o.records {
		d.add("job %d %d %d %d %d %d", j.Job, j.Release, j.MandatoryStart, j.WindupStart, j.Finish, j.Deadline)
		for _, p := range j.Parts {
			d.add("part %d %d %d", p.Outcome, p.Executed, p.Length)
		}
	}
	d.add("stats %+v", o.stats)
	d.add("probes %v %v", s.probe.sum, s.probe.n)
	return d.sum()
}

// checkPaper applies the seed-independent invariants to a finished run of
// jobs jobs.
func checkPaper(r *run, o paperOutcome, jobs int) {
	st := o.stats
	r.check(st.Jobs == jobs, "paper: %d job records, want %d", st.Jobs, jobs)
	r.check(st.DeadlineMisses == 0, "paper: %d deadline misses, want 0", st.DeadlineMisses)
	r.check(st.TerminatedParts == jobs*paperParts && st.CompletedParts == 0 && st.DiscardedParts == 0,
		"paper: parts completed/terminated/discarded = %d/%d/%d, want every one of %d terminated at OD",
		st.CompletedParts, st.TerminatedParts, st.DiscardedParts, jobs*paperParts)
}

func runPaper(r *run) error {
	jobs := (paperWarmOps + r.ops) * paperJobsPerOp
	s, setup, err := setups(r, setupReps, func() (*paperSys, error) {
		s, err := buildPaper(r.spans, r.seed, jobs, true, nil)
		if err != nil {
			return nil, err
		}
		r.spans.do("warmup", func() { err = s.advance(paperWarmOps * paperJobsPerOp) })
		return s, err
	})
	if err != nil {
		return err
	}

	var heap0 uint64
	if r.traced() {
		s.probe.sample = true
		s.probe.pending = make([]float64, 0, r.ops*paperJobsPerOp)
		heap0 = heapAlloc()
	}
	steps0 := s.eng.Steps()
	l := r.timeOps(paperJobsPerOp*paperPeriod, func(int) error { return s.advance(paperJobsPerOp) })
	events := s.eng.Steps() - steps0
	var heapKBPerJob float64
	if r.traced() {
		heapKBPerJob = (float64(heapAlloc()) - float64(heap0)) / 1024 / float64(r.ops*paperJobsPerOp)
	}
	r.report(l, setup)

	o := s.outcome(r.spans)
	checkPaper(r, o, jobs)
	_, respTail, _ := tail(o.resp)
	st := o.stats
	r.setE2E("resp_ms_p50", quantile(o.resp, 0.5), "ms")
	r.setE2E("resp_ms_tail", respTail, "ms")
	r.setE2E("qos", st.MeanQoS, "fraction")
	r.setE2E("miss_ratio", float64(st.DeadlineMisses)/float64(st.Jobs), "fraction")
	fmt.Fprintf(r.out, "outcome: %v; trace %d records, %d bytes spilled; digest %s\n",
		st, s.tr.Emitted(), s.sink.n, s.digest(o))

	if !r.traced() {
		return nil
	}
	r.setLayer("engine.events_per_op", float64(events)/float64(r.ops), "count")
	r.setLayer("engine.ns_per_event", sum(l.opNs)/float64(events), "ns")
	r.setLayer("engine.pending_p50", median(s.probe.pending), "count")
	r.setLayer("core.heap_kb_per_job", heapKBPerJob, "KB")
	for k, name := range []string{"core.delta_m_us", "core.delta_s_us", "core.delta_b_us", "core.delta_e_us"} {
		r.setLayer(name, s.probe.meanUs(k), "us")
	}
	perJob := float64(st.Jobs)
	r.setLayer("core.parts_terminated_per_job", float64(st.TerminatedParts)/perJob, "count")
	r.setLayer("core.parts_completed_per_job", float64(st.CompletedParts)/perJob, "count")
	r.setLayer("core.parts_discarded_per_job", float64(st.DiscardedParts)/perJob, "count")
	r.setLayer("trace.records_per_job", float64(s.tr.Emitted())/perJob, "count")
	r.setLayer("trace.spill_mb", float64(s.sink.n)/(1<<20), "MiB")
	r.setLayer("trace.lost", float64(s.tr.TotalLost()), "count")
	r.setLayer("resp_ms_p50", r.e2e["resp_ms_p50"].Value, "ms")
	r.setLayer("resp_ms_tail", r.e2e["resp_ms_tail"].Value, "ms")
	r.setLayer("qos", st.MeanQoS, "fraction")
	r.setLayer("miss_ratio", r.e2e["miss_ratio"].Value, "fraction")

	if err := paperKernelRung(r); err != nil {
		return err
	}
	return paperTraceRung(r)
}

// paperKernelRung counts kernel trace records by kind over a fixed run on a
// fresh system whose tracer has a counting tap, after the same warm-up as
// the timed system.
func paperKernelRung(r *run) error {
	const warm, jobs = paperWarmOps * paperJobsPerOp, 20
	var counts kindCounts
	id := r.spans.begin("ladder.kernel_counts", -1)
	defer r.spans.end(id)
	s, err := buildPaper(r.spans, r.seed, warm+jobs, true, counts.tap)
	if err != nil {
		return err
	}
	if err := s.advance(warm); err != nil {
		return err
	}
	base := counts
	if err := s.advance(jobs); err != nil {
		return err
	}
	counts.since(&base).report(r, jobs*paperPeriod)
	return nil
}

// paperTraceRung is the trace ladder: the same jobs on a system without a
// tracer and on one with it, alternated in chunks so host drift hits both
// sides of a pair. A pair's CPU-time difference per emitted record is the
// trace layer's cost; the figure is the median over pairs.
func paperTraceRung(r *run) error {
	const chunks, chunkJobs = 24, 40
	jobs := (1 + chunks) * chunkJobs
	off, err := buildPaper(r.spans, r.seed, jobs, false, nil)
	if err != nil {
		return err
	}
	on, err := buildPaper(r.spans, r.seed, jobs, true, nil)
	if err != nil {
		return err
	}
	for _, s := range []*paperSys{off, on} {
		if err := s.advance(chunkJobs); err != nil {
			return err
		}
	}
	perRecord := make([]float64, 0, chunks)
	for c := 0; c < chunks; c++ {
		rec0 := on.tr.Emitted()
		var t [2]time.Duration
		for j, rung := range []struct {
			name string
			s    *paperSys
		}{{"ladder.trace_off", off}, {"ladder.trace_on", on}} {
			id := r.spans.begin(rung.name, -1)
			start := cpuTime()
			err := rung.s.advance(chunkJobs)
			t[j] = cpuTime() - start
			r.spans.end(id)
			if err != nil {
				return err
			}
		}
		perRecord = append(perRecord, float64(t[1]-t[0])/float64(on.tr.Emitted()-rec0))
	}
	r.setLayer("trace.ns_per_record", median(perRecord), "ns")
	return nil
}
