package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/task"
	"rtseed/internal/trace"
	"rtseed/internal/workload"
)

// classCount tallies one class's completed jobs and deadline misses on one
// machine. Bodies mutate it from the machine's own event loop; cross-machine
// reads happen only at epoch barriers.
type classCount struct {
	Jobs   int
	Misses int
}

// windowCount tallies one workload window's jobs and misses on one machine.
// Like classCount, bodies mutate it only from the machine's own event loop.
type windowCount struct {
	Jobs   int
	Misses int
}

// sim is one machine's running simulation. Each sim owns every piece of
// mutable state it touches — engine, machine RNG, kernel, counters, trace
// sink — which is what lets machines run on concurrent OS threads without
// sharing anything between barriers.
type sim struct {
	index    int
	eng      *engine.Engine
	kern     *kernel.Kernel
	topo     machine.Topology
	tracer   *trace.Tracer
	file     *os.File
	counters [workload.NumClasses]classCount
	// winCounts has one tally per workload window (empty when unwindowed);
	// bodies attribute each job by its release instant.
	winCounts []windowCount

	prevEnd  engine.Time
	prevBusy time.Duration
}

// newSim builds machine index's simulation: engine, cost model (with a
// per-machine jitter seed derived from cfg.Seed and the index, so the fleet
// is heterogeneous but reproducible), optional file-backed tracer, and one
// pinned continuation thread per placed task. All of a core's tasks run on
// the core's first hardware thread at their RM band priority, matching the
// uniprocessor analysis that admitted them.
func newSim(index int, cfg *Config, placed []placedTask, winEnds []time.Duration) (*sim, error) {
	mach, err := machine.New(cfg.Topology, cfg.Load, machine.DefaultCostModel(),
		workload.Mix64(cfg.Seed, 0x10000+uint64(index)))
	if err != nil {
		return nil, err
	}
	eng := engine.New()
	kern := kernel.New(eng, mach)
	s := &sim{index: index, eng: eng, kern: kern, topo: cfg.Topology}
	if len(winEnds) > 0 {
		s.winCounts = make([]windowCount, len(winEnds))
	}
	if cfg.TraceDir != "" {
		f, err := os.Create(filepath.Join(cfg.TraceDir, TraceFileName(index)))
		if err != nil {
			return nil, err
		}
		s.file = f
		s.tracer = trace.New(trace.Config{CPUs: cfg.Topology.NumHWThreads(), Sink: f})
		kern.SetTrace(s.tracer)
	}

	perCore := make([][]placedTask, cfg.Topology.Cores)
	for _, pt := range placed {
		perCore[pt.core] = append(perCore[pt.core], pt)
	}
	var threads []*kernel.Thread
	for core, pts := range perCore {
		if len(pts) == 0 {
			continue
		}
		tasks := make([]task.Task, len(pts))
		for i, pt := range pts {
			tasks[i] = pt.t
		}
		set, err := task.NewSet(tasks...)
		if err != nil {
			return nil, err
		}
		prios, err := task.RMBandPriorities(set, kernel.MinPriority, kernel.MaxPriority-1)
		if err != nil {
			return nil, err
		}
		cpu := cfg.Topology.HWThreadOf(core, 0)
		for i, pt := range pts {
			th, err := kern.NewBodyThread(kernel.ThreadConfig{
				Name:     pt.t.Name,
				Priority: prios[i],
				CPU:      cpu,
			}, &clusterBody{
				kern:      kern,
				cnt:       &s.counters[pt.class],
				winEnds:   winEnds,
				winCounts: s.winCounts,
				period:    pt.t.Period,
				mandatory: pt.t.Mandatory,
				windup:    pt.t.Windup,
				start:     engine.At(pt.arrival),
				stop:      stopAt(pt.arrival, pt.lifetime),
			})
			if err != nil {
				return nil, err
			}
			threads = append(threads, th)
		}
	}
	for _, th := range threads {
		th.Start()
	}
	return s, nil
}

// stopAt converts a client's activity interval into the instant its tasks
// stop releasing jobs; zero lifetime means active until the horizon, encoded
// as engine.Time zero (no stop).
func stopAt(arrival, lifetime time.Duration) engine.Time {
	if lifetime == 0 {
		return 0
	}
	return engine.At(arrival + lifetime)
}

// TraceFileName is the per-machine trace file name under Config.TraceDir.
func TraceFileName(index int) string {
	return fmt.Sprintf("machine-%03d.rtt", index)
}

// runUntil advances the machine's virtual clock to end. It steps the engine
// directly: kernel.RunUntil would shut the kernel down after the first
// epoch, and a shut-down kernel refuses to run again.
func (s *sim) runUntil(end engine.Time) { s.eng.RunUntil(end) }

// rtBusy sums the busy time of the machine's RT cores (each core's first
// hardware thread) since time zero.
func (s *sim) rtBusy() time.Duration {
	var busy time.Duration
	now := s.eng.Now().Duration()
	for c := 0; c < s.topo.Cores; c++ {
		f := s.kern.Utilization(s.topo.HWThreadOf(c, 0), 0)
		busy += time.Duration(f * float64(now))
	}
	return busy
}

// signal is the machine's contribution to the epoch barrier ending at end:
// cumulative jobs and misses plus the in-epoch busy fraction of its RT
// cores.
func (s *sim) signal(end engine.Time) MachineSignal {
	sig := MachineSignal{Machine: s.index}
	for i := range s.counters {
		sig.Jobs += s.counters[i].Jobs
		sig.Misses += s.counters[i].Misses
	}
	busy := s.rtBusy()
	if span := end.Sub(s.prevEnd); span > 0 && s.topo.Cores > 0 {
		sig.Busy = float64(busy-s.prevBusy) / (float64(span) * float64(s.topo.Cores))
	}
	s.prevEnd, s.prevBusy = end, busy
	return sig
}

// meanBusy is the RT cores' mean busy fraction over the whole run.
func (s *sim) meanBusy() float64 {
	now := s.eng.Now().Duration()
	if now <= 0 || s.topo.Cores == 0 {
		return 0
	}
	return float64(s.rtBusy()) / (float64(now) * float64(s.topo.Cores))
}

// finish shuts the machine down and flushes its trace file, if any.
func (s *sim) finish() error {
	s.kern.Shutdown()
	if s.tracer == nil {
		return nil
	}
	err := s.tracer.Close(s.kern.ThreadInfos())
	if cerr := s.file.Close(); err == nil {
		err = cerr
	}
	return err
}

// clusterPC is the program counter of a client task's continuation body.
type clusterPC uint8

const (
	// cpcRelease: account the finished job (except on the first step) and
	// sleep until the next release.
	cpcRelease clusterPC = iota
	// cpcMandatory: the release sleep returned; run the mandatory part.
	cpcMandatory
	// cpcWindup: the mandatory burst returned; run the wind-up part.
	cpcWindup
)

// clusterBody is the continuation form of one admitted client task: sleep
// to release, compute mandatory, compute wind-up, account the job against
// its implicit deadline (release + period). One value per task, allocated
// once at sim build; Step allocates nothing, so per-machine steady state
// matches the many-task executor's 0 allocs/op.
type clusterBody struct {
	kern *kernel.Kernel
	cnt  *classCount
	// winEnds/winCounts attribute each job to the workload window containing
	// its release; wi is the body's monotone window cursor (releases only
	// move forward in time).
	winEnds   []time.Duration
	winCounts []windowCount
	wi        int
	period    time.Duration
	mandatory time.Duration
	windup    time.Duration
	// start is the first release (the client's arrival); stop, when nonzero,
	// ends the client's job stream (arrival + lifetime).
	start   engine.Time
	stop    engine.Time
	release engine.Time
	job     int
	pc      clusterPC
}

//rtseed:noalloc
//rtseed:kernelctx
func (b *clusterBody) Step(c *kernel.TCB, r kernel.Resume) kernel.Next {
	switch b.pc {
	case cpcRelease:
		if r.First {
			b.release = b.start
		} else {
			b.finishJob(c)
			b.release = b.release.Add(b.period)
			if b.stop != 0 && b.release >= b.stop {
				return kernel.Done()
			}
		}
		b.pc = cpcMandatory
		return kernel.SleepUntil(b.release)
	case cpcMandatory:
		b.emit(c, b.release, trace.KindJobRelease, uint64(b.job))
		b.emit(c, c.Now(), trace.KindMandStart, uint64(b.job))
		b.pc = cpcWindup
		return kernel.Compute(b.mandatory)
	case cpcWindup:
		b.pc = cpcRelease
		return kernel.Compute(b.windup)
	}
	panic("cluster: corrupt client body state")
}

// finishJob accounts the job that just completed its wind-up part against
// the machine's per-class counters and mirrors the verdict into the trace.
//
//rtseed:noalloc
//rtseed:kernelctx
func (b *clusterBody) finishJob(c *kernel.TCB) {
	finish := c.Now()
	deadline := b.release.Add(b.period)
	b.cnt.Jobs++
	missed := trace.MissedDeadline(finish.Duration(), deadline.Duration())
	b.emit(c, finish, trace.KindJobEnd, uint64(b.job))
	if missed {
		b.cnt.Misses++
		b.emit(c, finish, trace.KindDeadlineMiss, trace.PackMiss(b.job, finish.Sub(deadline)))
	} else {
		b.emit(c, finish, trace.KindDeadlineMet, uint64(b.job))
	}
	if len(b.winCounts) > 0 {
		rel := b.release.Duration()
		for b.wi+1 < len(b.winEnds) && rel >= b.winEnds[b.wi] {
			b.wi++
		}
		b.winCounts[b.wi].Jobs++
		if missed {
			b.winCounts[b.wi].Misses++
		}
	}
	b.job++
}

// emit writes one middleware trace record attributed to the calling thread.
//
//rtseed:noalloc
//rtseed:kernelctx
func (b *clusterBody) emit(c *kernel.TCB, at engine.Time, kind trace.Kind, arg uint64) {
	if tr := b.kern.Trace(); tr != nil {
		tr.Emit(at, uint16(c.HWThread()), uint32(c.Thread().ID()), kind, arg)
	}
}
