package core

import (
	"fmt"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/task"
	"rtseed/internal/trace"
)

// App carries the application callbacks of a parallel-extended imprecise
// task: what the mandatory, optional, and wind-up parts actually compute
// (e.g. ingest a tick / refine an indicator / make a trading decision). All
// fields are optional. Callbacks run in host code at the corresponding
// protocol points and consume no virtual time — the parts' durations come
// from the task model.
type App struct {
	// OnMandatory runs when the mandatory part of a job completes.
	OnMandatory func(job int)
	// OnOptional runs when parallel optional part k of a job ends
	// (completed or terminated), with the achieved progress in [0,1].
	OnOptional func(job, k int, progress float64)
	// OnWindup runs when the wind-up part of a job completes, with the
	// per-part progress achieved this job (discarded parts report 0).
	OnWindup func(job int, progress []float64)
}

// Probes are measurement hooks at the protocol points of Fig. 9. All fields
// are optional; the overhead harness uses them to reproduce Figs. 10-13.
type Probes struct {
	// OnRelease fires when the mandatory part begins: Δm = start − release.
	OnRelease func(job int, release, start engine.Time)
	// OnSignalLoop brackets the pthread_cond_signal loop waking all
	// parallel optional threads: Δb = end − start.
	OnSignalLoop func(job int, start, end engine.Time)
	// OnMandatoryBlock fires when the mandatory thread blocks waiting for
	// the optional parts.
	OnMandatoryBlock func(job int, at engine.Time)
	// OnOptionalStart fires when parallel optional thread k begins its
	// part: Δs = start(k=0) − mandatory block time (part 0 shares the
	// mandatory thread's hardware thread).
	OnOptionalStart func(job, k int, at engine.Time)
	// OnWindupStart fires when the wind-up part begins:
	// Δe = start − optional deadline when the parts overran.
	OnWindupStart func(job int, od, start engine.Time)
}

// Config configures one parallel-extended imprecise task as an RT-Seed
// real-time process.
type Config struct {
	// Task is the task's timing model.
	Task task.Task
	// MandatoryPriority is the mandatory thread's RTQ priority in
	// [RTQMin, RTQMax]; the optional threads get MandatoryPriority −
	// PriorityGap.
	MandatoryPriority int
	// MandatoryCPU pins the mandatory thread (and wind-up part).
	MandatoryCPU machine.HWThread
	// OptionalCPUs pins parallel optional thread k to OptionalCPUs[k];
	// its length must equal Task.NumOptional(). Per the paper, the first
	// entry should equal MandatoryCPU (enforced when np > 0).
	OptionalCPUs []machine.HWThread
	// OptionalDeadline is the relative optional deadline OD (from
	// analysis.RMWP; for a single task, D − w).
	OptionalDeadline time.Duration
	// Jobs is how many jobs to execute.
	Jobs int
	// Termination is the optional-part termination mechanism; nil selects
	// SigjmpTermination, the paper's choice.
	Termination Termination
	// Adaptive, when set, bounds the ending overhead by adjusting how
	// many parallel optional parts are signalled per job (unsignalled
	// parts are discarded). See Adaptive.
	Adaptive *Adaptive
	// Overrun selects what happens when a job's entire period has already
	// passed by the time the mandatory thread could release it (a previous
	// job overran): OverrunContinue (default) releases it late,
	// OverrunSkip drops it (skip-over semantics) and counts it in
	// SkippedJobs.
	Overrun OverrunPolicy
	// ReleaseJitter delays each job's release by a deterministic
	// pseudo-random offset in [0, ReleaseJitter): the sporadic-arrival
	// extension for feeds that do not tick exactly once per period. Each
	// job's deadline and optional deadline shift with its release; the
	// minimum inter-arrival time stays the period.
	ReleaseJitter time.Duration
	// JitterSeed seeds the release jitter (0 = derived from the task
	// name length — set it explicitly for experiments).
	JitterSeed uint64
	// Migrate, when set, is consulted at every job release with the
	// mandatory thread's current hardware thread; returning a different
	// one migrates the mandatory thread there before the mandatory part
	// runs. P-RMWP leaves this nil — partitioned tasks never migrate
	// (§IV-B); the middleware-level G-RMWP runner uses it, paying the
	// migration overhead the paper's design discussion predicts.
	Migrate func(job int, current machine.HWThread) machine.HWThread
	// App and Probes hook application logic and measurements.
	App    App
	Probes Probes
}

func (cfg *Config) validate() error {
	if err := cfg.Task.Validate(); err != nil {
		return err
	}
	if cfg.MandatoryPriority != HPQPriority &&
		(cfg.MandatoryPriority < RTQMin || cfg.MandatoryPriority > RTQMax) {
		return fmt.Errorf("core: mandatory priority %d outside RTQ [%d,%d] (or HPQ %d)",
			cfg.MandatoryPriority, RTQMin, RTQMax, HPQPriority)
	}
	np := cfg.Task.NumOptional()
	if len(cfg.OptionalCPUs) != np {
		return fmt.Errorf("core: %d optional CPUs for %d optional parts",
			len(cfg.OptionalCPUs), np)
	}
	if np > 0 && cfg.OptionalCPUs[0] != cfg.MandatoryCPU {
		return fmt.Errorf("core: first optional part must share the mandatory thread's CPU %d, got %d",
			cfg.MandatoryCPU, cfg.OptionalCPUs[0])
	}
	if cfg.OptionalDeadline <= 0 || cfg.OptionalDeadline > cfg.Task.Deadline() {
		return fmt.Errorf("core: optional deadline %v outside (0, %v]",
			cfg.OptionalDeadline, cfg.Task.Deadline())
	}
	if cfg.Jobs <= 0 {
		return fmt.Errorf("core: jobs must be positive, got %d", cfg.Jobs)
	}
	return nil
}

// Process is a running parallel-extended imprecise task: one mandatory
// thread plus np parallel optional threads on a simulated kernel. A
// practical task (NewPracticalProcess) runs on the same protocol with one
// fork-join section per task.Section.
type Process struct {
	k        *kernel.Kernel
	cfg      Config
	term     Termination
	sections []section

	mandatory *kernel.Thread
	optionals []*kernel.Thread

	mandCond *kernel.CondVar
	optConds []*kernel.CondVar
	// endLock serializes the per-part ending path: signal-delivery
	// processing under the process-wide sighand lock plus the
	// endOptionalPart bookkeeping on shared task state. All np parts
	// terminating at the same optional deadline drain through it one at a
	// time — the O(np) ending overhead of Fig. 13.
	endLock *kernel.Mutex

	// Protocol state. Both bodies step inline on the event loop, one Step
	// at a time, so plain fields are safe.
	running     bool
	activeParts int
	skipped     int
	partPending []bool
	remaining   int
	curJob      int
	curOD       engine.Time
	curParts    []task.PartRecord

	records []task.JobRecord
}

// section is one fork-join stage of a job: the mandatory burst, then the
// parallel optional parts [lo, hi) signalled with the section's optional
// deadline od, relative to the release.
type section struct {
	mandatory time.Duration
	lo, hi    int
	od        time.Duration
}

// NewProcess builds the process and its threads (sched_setscheduler +
// sched_setaffinity of Fig. 6). Threads start when Start is called.
func NewProcess(k *kernel.Kernel, cfg Config) (*Process, error) {
	return newSectionedProcess(k, cfg, []section{{
		mandatory: cfg.Task.Mandatory,
		hi:        cfg.Task.NumOptional(),
		od:        cfg.OptionalDeadline,
	}})
}

// newSectionedProcess validates cfg and builds a process whose jobs run
// the given sections in order before the wind-up part.
func newSectionedProcess(k *kernel.Kernel, cfg Config, sections []section) (*Process, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	term := cfg.Termination
	if term == nil {
		term = SigjmpTermination{}
	}
	optPrio, err := OptionalPriority(cfg.MandatoryPriority)
	if err != nil {
		return nil, err
	}
	np := cfg.Task.NumOptional()
	p := &Process{
		k:           k,
		cfg:         cfg,
		term:        term,
		sections:    sections,
		running:     true,
		activeParts: np,
		partPending: make([]bool, np),
		endLock:     k.NewMutex(cfg.Task.Name + ".end"),
		mandCond:    k.NewCondVar(cfg.Task.Name + ".mandatory"),
		optConds:    make([]*kernel.CondVar, np),
		optionals:   make([]*kernel.Thread, np),
	}
	mb := &mandBody{p: p}
	if cfg.ReleaseJitter > 0 {
		seed := cfg.JitterSeed
		if seed == 0 {
			seed = uint64(len(cfg.Task.Name)) + 1
		}
		mb.jitterRng = engine.NewRand(seed)
	}
	p.mandatory, err = k.NewBodyThread(kernel.ThreadConfig{
		Name:     cfg.Task.Name + ".mand",
		Priority: cfg.MandatoryPriority,
		CPU:      cfg.MandatoryCPU,
	}, mb)
	if err != nil {
		return nil, err
	}
	for i := 0; i < np; i++ {
		p.optConds[i] = k.NewCondVar(fmt.Sprintf("%s.opt%d", cfg.Task.Name, i))
		p.optionals[i], err = k.NewBodyThread(kernel.ThreadConfig{
			Name:     fmt.Sprintf("%s.opt%d", cfg.Task.Name, i),
			Priority: optPrio,
			CPU:      cfg.OptionalCPUs[i],
		}, &optBody{p: p, k: i})
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Start launches the process's threads.
func (p *Process) Start() {
	for _, t := range p.optionals {
		t.Start()
	}
	p.mandatory.Start()
}

// SkippedJobs returns how many releases the OverrunSkip policy dropped.
func (p *Process) SkippedJobs() int { return p.skipped }

// Records returns the per-job records accumulated so far.
func (p *Process) Records() []task.JobRecord {
	out := make([]task.JobRecord, len(p.records))
	copy(out, p.records)
	return out
}

// Stats summarizes the accumulated job records.
func (p *Process) Stats() task.Stats { return task.Summarize(p.records) }

// Termination returns the configured termination mechanism.
func (p *Process) Termination() Termination { return p.term }

// MandatoryThread returns the mandatory thread (for trace filtering).
func (p *Process) MandatoryThread() *kernel.Thread { return p.mandatory }

// OptionalThreads returns the parallel optional threads.
func (p *Process) OptionalThreads() []*kernel.Thread {
	out := make([]*kernel.Thread, len(p.optionals))
	copy(out, p.optionals)
	return out
}

// emit writes one middleware trace record at the current virtual time,
// attributed to the calling thread on its current CPU. It brackets the
// P-RMWP part boundaries (release, fork, termination, wind-up, deadline)
// that the kernel's own thread-state records cannot name.
//
//rtseed:noalloc
//rtseed:kernelctx-entry simulated-thread context: the kernel handshake runs one thread at a time, serialized with the event loop
func (p *Process) emit(c *kernel.TCB, kind trace.Kind, arg uint64) {
	if tr := p.k.Trace(); tr != nil {
		tr.Emit(c.Now(), uint16(c.HWThread()), uint32(c.Thread().ID()), kind, arg)
	}
}

// emitAt is emit with an explicit record timestamp (the nominal release
// instant of KindJobRelease, which precedes the emitting thread's wake-up).
//
//rtseed:noalloc
//rtseed:kernelctx-entry simulated-thread context: the kernel handshake runs one thread at a time, serialized with the event loop
func (p *Process) emitAt(c *kernel.TCB, at engine.Time, kind trace.Kind, arg uint64) {
	if tr := p.k.Trace(); tr != nil {
		tr.Emit(at, uint16(c.HWThread()), uint32(c.Thread().ID()), kind, arg)
	}
}

// mandPC is the mandatory body's program counter: which kernel action the
// body is waiting on.
type mandPC uint8

const (
	// pmRelease: initial state; pick the next job and sleep to its release.
	pmRelease mandPC = iota
	// pmAwake: the release sleep returned; migrate if the policy asks, then
	// start the mandatory part.
	pmAwake
	// pmMigrated: the migration completed; start the mandatory part.
	pmMigrated
	// pmAfterMand: a section's mandatory burst completed; fork its
	// optional parts.
	pmAfterMand
	// pmSignal: a pthread_cond_signal of the wake-up loop completed; signal
	// the next part or block for the parts to end.
	pmSignal
	// pmWait: a CondWait on the mandatory condvar returned; re-check
	// remaining (spurious-wakeup loop) or join the section.
	pmWait
	// pmAfterWind: the wind-up burst completed; record the job and loop.
	pmAfterWind
	// pmDrain: a deactivation signal completed; signal the next optional
	// thread or exit.
	pmDrain
)

// mandBody is the mandatory thread's program (Fig. 6, left column) in
// continuation form: sleep to the release; for each section, execute its
// mandatory part, wake its parallel optional threads and wait for them all
// to end; then execute the wind-up part and sleep until the next release.
// Each kernel action is one returned Next; everything between two actions
// is host code and runs inside one Step.
type mandBody struct {
	p         *Process
	jitterRng *engine.Rand

	pc        mandPC
	job       int
	sec       int
	release   engine.Time
	mandStart engine.Time
	bStart    engine.Time
	sigEnd    int
	sigIdx    int
}

//rtseed:kernelctx
func (b *mandBody) Step(c *kernel.TCB, r kernel.Resume) kernel.Next {
	switch b.pc {
	case pmRelease:
		return b.startJob(c)
	case pmAwake:
		if fn := b.p.cfg.Migrate; fn != nil {
			if target := fn(b.job, c.HWThread()); target != c.HWThread() {
				b.pc = pmMigrated
				return kernel.Migrate(target)
			}
		}
		return b.startMandatory(c)
	case pmMigrated:
		return b.startMandatory(c)
	case pmAfterMand:
		return b.fork(c)
	case pmSignal:
		b.sigIdx++
		if b.sigIdx < b.sigEnd {
			return kernel.CondSignal(b.p.optConds[b.sigIdx])
		}
		if fn := b.p.cfg.Probes.OnSignalLoop; fn != nil {
			fn(b.job, b.bStart, c.Now())
		}
		if fn := b.p.cfg.Probes.OnMandatoryBlock; fn != nil {
			fn(b.job, c.Now())
		}
		if b.p.remaining > 0 {
			b.pc = pmWait
			return kernel.CondWait(b.p.mandCond)
		}
		return b.join(c)
	case pmWait:
		if b.p.remaining > 0 {
			return kernel.CondWait(b.p.mandCond)
		}
		return b.join(c)
	case pmAfterWind:
		return b.finishJob(c)
	case pmDrain:
		b.sigIdx++
		if b.sigIdx < len(b.p.optConds) {
			return kernel.CondSignal(b.p.optConds[b.sigIdx])
		}
		return kernel.Done()
	}
	panic("core: corrupt mandatory body state")
}

// startJob picks the next job — applying release jitter and the
// OverrunSkip policy in host code — and sleeps to its release, or begins
// the deactivation drain when all jobs are done.
func (b *mandBody) startJob(c *kernel.TCB) kernel.Next {
	p, t := b.p, b.p.cfg.Task
	for {
		if b.job >= p.cfg.Jobs {
			// Deactivate and wake the optional threads so they can exit.
			p.running = false
			if len(p.optConds) == 0 {
				return kernel.Done()
			}
			b.sigIdx = 0
			b.pc = pmDrain
			return kernel.CondSignal(p.optConds[0])
		}
		release := engine.At(time.Duration(b.job) * t.Period)
		if b.jitterRng != nil {
			release = release.Add(time.Duration(b.jitterRng.Uint64() % uint64(p.cfg.ReleaseJitter)))
		}
		if p.cfg.Overrun == OverrunSkip && c.Now() >= release.Add(t.Period) {
			// The whole window has passed: skip-over.
			p.skipped++
			b.job++
			continue
		}
		b.release = release
		b.pc = pmAwake
		return kernel.SleepUntil(release)
	}
}

// startMandatory begins a released job: its part records, then the first
// section's mandatory burst.
func (b *mandBody) startMandatory(c *kernel.TCB) kernel.Next {
	p := b.p
	b.mandStart = c.Now()
	p.emitAt(c, b.release, trace.KindJobRelease, uint64(b.job))
	p.emit(c, trace.KindMandStart, uint64(b.job))
	if fn := p.cfg.Probes.OnRelease; fn != nil {
		fn(b.job, b.release, b.mandStart)
	}
	p.curJob = b.job
	p.curParts = make([]task.PartRecord, p.cfg.Task.NumOptional())
	b.sec = 0
	b.pc = pmAfterMand
	return kernel.Compute(p.sections[0].mandatory)
}

// fork runs after a section's mandatory part: wake the section's active
// parallel optional threads (Δb is the signal loop), or discard every part
// of the section when its optional deadline has already passed.
func (b *mandBody) fork(c *kernel.TCB) kernel.Next {
	p, s := b.p, b.p.sections[b.sec]
	if fn := p.cfg.App.OnMandatory; fn != nil {
		fn(b.job)
	}
	od := b.release.Add(s.od)
	p.curOD = od

	active := s.hi - s.lo
	if p.cfg.Adaptive != nil {
		active = p.activeParts
	}
	if active > 0 && c.Now() < od {
		// Wake the active parallel optional threads (Δb is this
		// loop); the rest are discarded this job.
		b.sigEnd = s.lo + active
		p.remaining = active
		for k := s.lo; k < b.sigEnd; k++ {
			p.partPending[k] = true
		}
		b.discard(c, b.sigEnd, s.hi)
		b.bStart = c.Now()
		p.emit(c, trace.KindOptFork, uint64(b.job))
		b.sigIdx = s.lo
		b.pc = pmSignal
		return kernel.CondSignal(p.optConds[s.lo])
	}
	// No time left before the optional deadline: the parts are
	// discarded — the optional threads never receive the wake-up
	// signal (Fig. 1).
	b.discard(c, s.lo, s.hi)
	return b.join(c)
}

// discard records parts [lo, hi) of the current job as discarded.
func (b *mandBody) discard(c *kernel.TCB, lo, hi int) {
	p := b.p
	for k := lo; k < hi; k++ {
		p.curParts[k] = task.PartRecord{
			Outcome: task.PartDiscarded,
			Length:  p.cfg.Task.Optional[k],
		}
		p.emit(c, trace.KindOptDiscard, trace.PackJobPart(b.job, k))
	}
}

// join runs once a section's optional parts have all ended: start the next
// section's mandatory burst, or the wind-up part after the last section.
func (b *mandBody) join(c *kernel.TCB) kernel.Next {
	b.sec++
	if b.sec < len(b.p.sections) {
		b.pc = pmAfterMand
		return kernel.Compute(b.p.sections[b.sec].mandatory)
	}
	return b.windup(c)
}

func (b *mandBody) windup(c *kernel.TCB) kernel.Next {
	p := b.p
	windupStart := c.Now()
	b.bStart = windupStart // reuse as windup start for finishJob
	p.emit(c, trace.KindWindupStart, uint64(b.job))
	if fn := p.cfg.Probes.OnWindupStart; fn != nil {
		fn(b.job, p.curOD, windupStart)
	}
	if a := p.cfg.Adaptive; a != nil {
		p.activeParts = a.next(p.activeParts, p.cfg.Task.NumOptional(), windupStart.Sub(p.curOD))
	}
	b.pc = pmAfterWind
	return kernel.Compute(p.cfg.Task.Windup)
}

func (b *mandBody) finishJob(c *kernel.TCB) kernel.Next {
	p, t := b.p, b.p.cfg.Task
	if fn := p.cfg.App.OnWindup; fn != nil {
		progress := make([]float64, t.NumOptional())
		for k, pr := range p.curParts {
			progress[k] = pr.Progress()
		}
		fn(b.job, progress)
	}
	finish := c.Now().Duration()
	deadline := b.release.Add(t.Deadline()).Duration()
	p.emit(c, trace.KindJobEnd, uint64(b.job))
	if trace.MissedDeadline(finish, deadline) {
		p.emit(c, trace.KindDeadlineMiss, trace.PackMiss(b.job, finish-deadline))
	} else {
		p.emit(c, trace.KindDeadlineMet, uint64(b.job))
	}
	p.records = append(p.records, task.JobRecord{
		Job:            b.job,
		Release:        b.release.Duration(),
		MandatoryStart: b.mandStart.Duration(),
		WindupStart:    b.bStart.Duration(),
		Finish:         finish,
		Deadline:       deadline,
		Parts:          p.curParts,
	})
	b.job++
	return b.startJob(c)
}

// optPC is a parallel optional body's program counter.
type optPC uint8

const (
	// poWait: a CondWait on the part's condvar returned; re-check the
	// wake-up predicate.
	poWait optPC = iota
	// poTerm: a termination-mechanism action completed; continue stepping
	// the mechanism or finish the part.
	poTerm
	// poLocked: the endLock acquisition completed; charge the ending
	// operation.
	poLocked
	// poCharged: the ending charge completed; release the lock.
	poCharged
	// poUnlocked: the lock release completed; wake the mandatory thread if
	// this was the last part, else wait for the next job.
	poUnlocked
	// poSignalled: the wake-up of the mandatory thread completed; wait for
	// the next job.
	poSignalled
)

// optBody is parallel optional thread k's program (Fig. 7) in continuation
// form: wait for the wake-up signal, run the optional part by stepping the
// termination mechanism's state machine, and when all parts have ended,
// send the wake-up signal back to the mandatory thread.
type optBody struct {
	p *Process
	k int

	pc   optPC
	job  int
	st   TermState
	last bool
}

//rtseed:kernelctx
func (b *optBody) Step(c *kernel.TCB, r kernel.Resume) kernel.Next {
	p := b.p
	switch b.pc {
	case poWait:
		return b.await(c, r)
	case poTerm:
		next, done := p.term.StepOptional(&b.st, c, r)
		if !done {
			return next
		}
		return b.endPart(c)
	case poLocked:
		b.pc = poCharged
		return kernel.ChargeOp(machine.OpEndOptional)
	case poCharged:
		p.remaining--
		b.last = p.remaining == 0
		b.pc = poUnlocked
		return kernel.MutexUnlock(p.endLock)
	case poUnlocked:
		if b.last {
			b.pc = poSignalled
			return kernel.CondSignal(p.mandCond)
		}
		return b.await(c, r)
	case poSignalled:
		return b.await(c, r)
	}
	panic("core: corrupt optional body state")
}

// await is the wake-up predicate loop: block until this part is pending or
// the process deactivates, then start the part under the termination
// mechanism.
func (b *optBody) await(c *kernel.TCB, r kernel.Resume) kernel.Next {
	p := b.p
	if p.running && !p.partPending[b.k] {
		b.pc = poWait
		return kernel.CondWait(p.optConds[b.k])
	}
	if !p.partPending[b.k] {
		return kernel.Done() // deactivated
	}
	p.partPending[b.k] = false
	b.job = p.curJob
	p.emit(c, trace.KindOptStart, trace.PackJobPart(b.job, b.k))
	if fn := p.cfg.Probes.OnOptionalStart; fn != nil {
		fn(b.job, b.k, c.Now())
	}
	b.st.Reset(p.curOD, p.cfg.Task.Optional[b.k])
	b.pc = poTerm
	next, done := p.term.StepOptional(&b.st, c, r)
	if done {
		// The mechanism ended the part without a kernel action: periodic
		// check on a zero-length part or past the optional deadline.
		return b.endPart(c)
	}
	return next
}

// endPart runs when the termination mechanism reports the part done:
// record the outcome, then enter the serialized ending path
// (endOptionalPart: sighand-lock signal processing + shared-state
// bookkeeping); the last part to end wakes the mandatory thread.
func (b *optBody) endPart(c *kernel.TCB) kernel.Next {
	p := b.p
	length := p.cfg.Task.Optional[b.k]
	outcome := task.PartTerminated
	if b.st.Completed {
		outcome = task.PartCompleted
		p.emit(c, trace.KindOptEnd, trace.PackJobPart(b.job, b.k))
	} else {
		p.emit(c, trace.KindOptTerm, trace.PackJobPart(b.job, b.k))
	}
	rec := task.PartRecord{Outcome: outcome, Executed: b.st.Ran, Length: length}
	p.curParts[b.k] = rec
	if fn := p.cfg.App.OnOptional; fn != nil {
		fn(b.job, b.k, rec.Progress())
	}
	b.pc = poLocked
	return kernel.MutexLock(p.endLock)
}
