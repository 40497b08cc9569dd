// Package kernel is a deterministic discrete-event simulation of the Linux
// facilities RT-Seed is built on (paper §IV): per-CPU SCHED_FIFO run queues
// with 99 priority levels implemented as double circular linked lists,
// fixed-priority preemptive dispatch, clock_nanosleep, condition variables,
// one-shot POSIX timers with SIGALRM delivery and per-thread signal masks,
// and CPU affinity.
//
// A simulated thread's body (NewBodyThread) is a resumable state machine
// whose Step the kernel calls inline from its dispatch path: each Step
// returns the next kernel action, and the kernel calls Step again once the
// action completes. A context switch is a function call, a simulation needs
// no goroutines regardless of thread count, and exactly one simulated
// thread executes host code at a time, so simulations are fully
// deterministic. Virtual time passes only inside kernel primitives, priced
// by the machine cost model.
package kernel

import (
	"fmt"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/machine"
	"rtseed/internal/trace"
)

// Event priorities: at equal timestamps, releases fire before timer
// expiries, which fire before service completions and dispatches.
const (
	prioRelease = iota
	prioTimer
	prioService
	prioDispatch
)

// Kernel simulates a multiprocessor fixed-priority kernel on top of an
// engine and a machine model.
type Kernel struct {
	eng  *engine.Engine
	mach *machine.Machine
	cpus []*cpu

	nextTID int
	threads []*Thread

	tr *trace.Tracer

	// shutdown is set by Shutdown; the kernel cannot run again after it.
	shutdown bool
}

// New builds a kernel for every hardware thread of the machine.
func New(eng *engine.Engine, mach *machine.Machine) *Kernel {
	k := &Kernel{eng: eng, mach: mach}
	n := mach.Topology().NumHWThreads()
	k.cpus = make([]*cpu, n)
	for i := range k.cpus {
		c := newCPU(machine.HWThread(i))
		// The per-CPU engine callbacks run inside Step's event dispatch.
		//rtseed:kernelctx
		c.dispatchFn = func() { k.finishDispatch(c) }
		//rtseed:kernelctx
		c.serviceFn = func() { k.finishService(c) }
		k.cpus[i] = c
	}
	return k
}

// Engine returns the underlying discrete-event engine.
func (k *Kernel) Engine() *engine.Engine { return k.eng }

// Machine returns the underlying machine model.
func (k *Kernel) Machine() *machine.Machine { return k.mach }

// Now returns the current virtual time.
func (k *Kernel) Now() engine.Time { return k.eng.Now() }

// SetTrace attaches a tracer: every thread state transition and timer
// action is emitted into it as a trace.Record. Pass nil to disable tracing.
func (k *Kernel) SetTrace(tr *trace.Tracer) { k.tr = tr }

// Trace returns the attached tracer, or nil.
func (k *Kernel) Trace() *trace.Tracer { return k.tr }

// emit writes one trace record for t at the current virtual time. This sits
// on every scheduling hot path, so with no tracer attached it must cost one
// nil check and nothing else.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) emit(t *Thread, kind trace.Kind, arg uint64) {
	if k.tr != nil {
		k.tr.Emit(k.eng.Now(), uint16(t.cpuID), uint32(t.id), kind, arg)
	}
}

// ThreadInfos returns the trace metadata of every thread ever created, in
// creation order — the thread table written alongside a trace file.
func (k *Kernel) ThreadInfos() []trace.ThreadInfo {
	out := make([]trace.ThreadInfo, len(k.threads))
	for i, t := range k.threads {
		out[i] = trace.ThreadInfo{
			TID:      uint32(t.id),
			CPU:      uint16(t.cpuID),
			Priority: uint16(t.prio),
			Name:     t.name,
		}
	}
	return out
}

// Run processes simulation events until none remain, then shuts the kernel
// down. It panics on a kernel that was already shut down.
func (k *Kernel) Run() {
	k.checkLive()
	k.eng.Run()
	k.Shutdown()
}

// RunUntil processes simulation events up to the deadline, then shuts the
// kernel down. It panics on a kernel that was already shut down; to run a
// simulation in slices, step the engine (Engine().RunUntil) and shut down
// once at the end.
func (k *Kernel) RunUntil(deadline engine.Time) {
	k.checkLive()
	k.eng.RunUntil(deadline)
	k.Shutdown()
}

func (k *Kernel) checkLive() {
	if k.shutdown {
		panic("kernel: Run after Shutdown")
	}
}

// Shutdown force-terminates every simulated thread that has not exited:
// blocked, sleeping, ready and computing threads are marked exited where
// they stand, and their bodies never step again. Shutdown is final. Events
// the threads had armed stay queued, so the kernel must not run again:
// Run and RunUntil panic after it.
func (k *Kernel) Shutdown() {
	k.shutdown = true
	for _, t := range k.threads {
		t.kill()
	}
	for _, c := range k.cpus {
		if c.current != nil {
			c.current = nil
		}
		k.mach.SetOccupant(c.id, machine.OccupantIdle)
	}
}

// Threads returns all threads ever created, in creation order.
func (k *Kernel) Threads() []*Thread {
	out := make([]*Thread, len(k.threads))
	copy(out, k.threads)
	return out
}

//rtseed:noalloc
func (k *Kernel) cpu(h machine.HWThread) *cpu {
	if int(h) < 0 || int(h) >= len(k.cpus) {
		badHWThread(h) // cold path split out so cpu() stays inlinable
	}
	return k.cpus[h]
}

func badHWThread(h machine.HWThread) {
	panic(fmt.Sprintf("kernel: invalid hw thread %d", h))
}

// makeReady places t on its CPU's run queue and triggers dispatch or
// preemption as needed. atFront enqueues at the head of t's priority level
// (SCHED_FIFO semantics for preempted threads).
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) makeReady(t *Thread, atFront bool) {
	c := k.cpu(t.cpuID)
	t.state = StateReady
	c.runq.enqueue(t, atFront)
	k.emit(t, trace.KindReady, 0)
	k.considerCPU(c)
}

// considerCPU kicks dispatch or preemption on c after its run queue changed.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) considerCPU(c *cpu) {
	top := c.runq.topPriority()
	if top < 0 {
		return
	}
	switch {
	case c.current == nil && !c.busy:
		k.scheduleDispatch(c)
	case c.current != nil && !c.busy && c.current.preemptible() && top > c.current.prio:
		k.preempt(c)
	}
}

// preempt stops the current (computing) thread of c and requeues it at the
// front of its priority level, then dispatches the higher-priority thread.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) preempt(c *cpu) {
	t := c.current
	if t == nil || t.state != StateComputing {
		panic("kernel: preempt of non-computing thread")
	}
	// Account for the compute time consumed so far: wall time for CPU
	// accounting, nominal work for the burst's remaining demand.
	consumed := k.eng.Now().Sub(t.computeStart)
	done := nominal(consumed, t.computeFactor)
	t.computeRemaining -= done
	if t.computeRemaining < 0 {
		t.computeRemaining = 0
	}
	t.computeRan += done
	k.accountRun(c, t, consumed)
	k.eng.Cancel(t.computeDone)
	t.computeDone = engine.Event{}
	k.setCurrent(c, nil)
	t.state = StateReady
	t.dispatchOp = machine.OpContextSwitch
	k.emit(t, trace.KindPreempt, 0)
	c.runq.enqueue(t, true)
	k.scheduleDispatch(c)
}

// scheduleDispatch begins a context switch on c: it picks the
// highest-priority ready thread, charges the switch cost, and then runs it.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) scheduleDispatch(c *cpu) {
	if c.busy || c.current != nil {
		return
	}
	t := c.runq.pop()
	if t == nil {
		return
	}
	c.busy = true
	c.dispatchT = t
	cost := k.mach.Cost(t.dispatchOp, c.id)
	k.eng.After(cost, prioDispatch, c.dispatchFn)
}

// finishDispatch completes the context switch scheduled by scheduleDispatch.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) finishDispatch(c *cpu) {
	t := c.dispatchT
	c.dispatchT = nil
	c.busy = false
	// A higher-priority thread may have become ready during the
	// switch window; honour it before running t.
	if top := c.runq.topPriority(); top > t.prio {
		t.dispatchOp = machine.OpContextSwitch
		c.runq.enqueue(t, true)
		k.scheduleDispatch(c)
		return
	}
	k.setCurrent(c, t)
	k.emit(t, trace.KindDispatch, 0)
	k.resumeOnCPU(t)
}

// resumeOnCPU continues a thread that has just been given its CPU: either it
// resumes an in-progress compute burst, or it returns from the kernel call
// it was parked in. Every blocking call completes, so only a thread's first
// dispatch, before any call, delivers Completed false.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) resumeOnCPU(t *Thread) {
	if t.computeRemaining > 0 || t.inCompute {
		k.startCompute(t)
		return
	}
	k.resumeThread(t, Resume{Completed: !t.stepFirst})
}

// setCurrent installs t (or nil) as the running thread of c and updates the
// machine occupancy used for SMT contention pricing.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) setCurrent(c *cpu, t *Thread) {
	c.current = t
	if t != nil {
		t.state = StateRunning
		k.mach.SetOccupant(c.id, machine.OccupantRT)
	} else {
		k.mach.SetOccupant(c.id, machine.OccupantIdle)
	}
}

// startCompute begins or resumes a compute burst for the running thread t.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) startCompute(t *Thread) {
	c := k.cpu(t.cpuID)
	if c.current != t {
		panic("kernel: startCompute for non-current thread")
	}
	t.state = StateComputing
	t.inCompute = true
	// A pending SIGALRM is delivered as soon as the thread enters (or
	// re-enters) an interruptible burst with the signal unmasked.
	if t.interruptible && t.pendingAlarm && !t.alarmMasked {
		k.interruptCompute(t)
		return
	}
	t.computeStart = k.eng.Now()
	// computeRemaining is nominal work. Uninterruptible bursts (mandatory
	// and wind-up parts) run at WCET semantics — their durations already
	// include contention (paper §II-A). Interruptible bursts (optional
	// parts) share their core's issue slots: SMT contention stretches the
	// wall time a unit of work takes, which is how the assignment policy
	// affects the QoS achieved by the optional deadline.
	t.computeFactor = 1
	if t.interruptible {
		t.computeFactor = k.mach.ThroughputFactor(t.cpuID)
	}
	wall := time.Duration(float64(t.computeRemaining) * t.computeFactor)
	t.computeWall = wall
	t.computeDone = k.eng.After(wall, prioService, t.computeDoneFn)
}

// finishCompute completes the burst armed by startCompute.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) finishCompute(t *Thread) {
	t.computeDone = engine.Event{}
	t.computeRan += t.computeRemaining
	k.accountRun(k.cpu(t.cpuID), t, t.computeWall)
	t.computeRemaining = 0
	t.inCompute = false
	t.state = StateRunning
	k.resumeThread(t, Resume{Completed: true, Ran: t.computeRan})
}

// interruptCompute terminates the running interruptible burst of t with a
// SIGALRM: the handler-entry cost is charged, the signal is consumed, and —
// as POSIX does — SIGALRM is masked for the duration of the handler. The
// middleware's termination mechanism decides whether the mask is ever
// restored (Table I).
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) interruptCompute(t *Thread) {
	if t.computeDone.Scheduled() {
		consumed := k.eng.Now().Sub(t.computeStart)
		done := nominal(consumed, t.computeFactor)
		t.computeRan += done
		t.computeRemaining -= done
		if t.computeRemaining < 0 {
			t.computeRemaining = 0
		}
		k.accountRun(k.cpu(t.cpuID), t, consumed)
		k.eng.Cancel(t.computeDone)
		t.computeDone = engine.Event{}
	}
	t.pendingAlarm = false
	t.alarmMasked = true // handler entry blocks the signal
	t.inCompute = false
	t.state = StateRunning
	cost := k.mach.Cost(machine.OpTimerInterrupt, t.cpuID)
	k.service(t, cost)
}

// service occupies t's CPU for cost (non-preemptible); finishService then
// completes t's kernel call.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) service(t *Thread, cost time.Duration) {
	c := k.cpu(t.cpuID)
	if c.current != t {
		panic("kernel: service for non-current thread")
	}
	c.busy = true
	c.serviceCost = cost
	k.eng.After(cost, prioService, c.serviceFn)
}

// finishService completes the costed kernel call of c's current thread once
// the cost armed by service has elapsed. A busy CPU is never preempted or
// re-dispatched, so the caller is still current, and it is still parked in
// its request: every parameter of the call is read from t.req.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) finishService(c *cpu) {
	c.busy = false
	k.accountRun(c, nil, c.serviceCost)
	t := c.current
	switch t.req.kind {
	case reqCompute:
		// The SIGALRM handler entry armed by interruptCompute returns.
		remaining := t.computeRemaining
		t.computeRemaining = 0
		k.resumeThread(t, Resume{Completed: false, Ran: t.computeRan, Unran: remaining})
	case reqCondWait:
		t.state = StateBlocked
		t.req.cv.waiters.PushBackNode(t.cvNode)
		k.emit(t, trace.KindBlock, 0)
		k.releaseCPU(t)
	case reqCondSignal:
		k.wakeOne(t.req.cv)
		k.resumeThread(t, Resume{Completed: true})
	case reqCondBroadcast:
		for t.req.cv.waiters.Len() > 0 {
			k.wakeOne(t.req.cv)
		}
		k.resumeThread(t, Resume{Completed: true})
	case reqTimerSet:
		k.finishTimerSet(t)
	case reqTimerStop:
		k.finishTimerStop(t)
	case reqMigrate:
		k.finishMigrate(t)
	case reqChargeOp, reqChargeOpRemote:
		k.resumeThread(t, Resume{Completed: true})
	case reqSleepUntil, reqSetAlarmMask, reqMutexLock, reqMutexUnlock, reqYield, reqExit:
		badService(t) // cold path split out so finishService stays lean
	}
}

func badService(t *Thread) {
	panic(fmt.Sprintf("kernel: service completed for thread %v parked in %v, which is not a costed kernel call", t, t.req.kind))
}

// nominal converts wall-clock execution into accomplished work under the
// SMT throughput factor sampled at the segment's start.
//
//rtseed:noalloc
func nominal(wall time.Duration, factor float64) time.Duration {
	if factor <= 1 {
		return wall
	}
	return time.Duration(float64(wall) / factor)
}

// handleYield implements sched_yield: the caller goes to the BACK of its
// priority level and the CPU re-dispatches.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) handleYield(t *Thread) {
	c := k.cpu(t.cpuID)
	k.setCurrent(c, nil)
	t.state = StateReady
	t.dispatchOp = machine.OpContextSwitch
	c.runq.enqueue(t, false)
	k.emit(t, trace.KindReady, 0)
	k.scheduleDispatch(c)
}

// releaseCPU detaches t from its CPU (it blocked, slept, or exited) and
// dispatches the next ready thread, if any.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) releaseCPU(t *Thread) {
	c := k.cpu(t.cpuID)
	if c.current != t {
		panic("kernel: releaseCPU for non-current thread")
	}
	k.setCurrent(c, nil)
	k.scheduleDispatch(c)
}
