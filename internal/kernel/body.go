package kernel

import (
	"fmt"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/machine"
)

// This file is the kernel's executor: task bodies are resumable state
// machines driven inline by the kernel's dispatch path. A context switch is
// a plain function call into Body.Step, so the per-event cost is the
// scheduling work itself and n=100k+ thread simulations need no goroutines
// at all.

// Body is a resumable task body. The kernel calls Step every time the
// thread would run host code: Step performs any amount of host work
// (bookkeeping, callbacks — all of it consumes no virtual time) and returns
// the next kernel action as a Next. The kernel executes the action,
// suspends the thread in virtual time accordingly, and calls Step again
// with a Resume describing the action's outcome.
//
// A Body's Step runs inside the kernel's event dispatch (it IS the thread's
// host code), so implementations are annotated //rtseed:kernelctx: nothing
// outside the kernel may call Step directly, and Step must never be spawned
// onto a goroutine. Steady-state Step implementations on benchmarked hot
// paths should also be allocation-free — a continuation that captures fresh
// state per step puts the allocator on every context switch.
type Body interface {
	Step(c *TCB, r Resume) Next
}

// StepFunc adapts a plain function to the Body interface for stateless or
// closure-state bodies.
type StepFunc func(c *TCB, r Resume) Next

// Step implements Body.
//
//rtseed:kernelctx
func (f StepFunc) Step(c *TCB, r Resume) Next { return f(c, r) }

// Resume carries the outcome of the previous action into the next Step.
type Resume struct {
	// First is true on a thread's very first step, before any action.
	First bool
	// Completed reports whether the previous action ran to completion.
	// It is false only for a ComputeInterruptible burst terminated by
	// SIGALRM.
	Completed bool
	// Ran is the CPU time the previous compute action consumed.
	Ran time.Duration
	// Unran is the nominal work a terminated interruptible burst did not
	// perform.
	Unran time.Duration
}

// Next is the action a body requests from the kernel: one kernel primitive,
// each of which suspends the thread in virtual time according to the
// machine cost model. The zero Next is invalid; construct one with the
// action constructors below.
type Next struct {
	req request
}

// Compute burns d of CPU time. The burst is preemptible by higher-priority
// threads but cannot be terminated by SIGALRM. d <= 0 completes
// immediately.
func Compute(d time.Duration) Next {
	return Next{req: request{kind: reqCompute, dur: d}}
}

// ComputeInterruptible burns up to d of CPU time; a SIGALRM (from the
// optional-deadline timer) terminates the burst early. The following
// Resume reports Completed and Ran. When the burst is terminated, the
// SIGALRM handler-entry cost has already been charged and — as POSIX does —
// SIGALRM is left masked, as if executing inside the signal handler; the
// caller's termination mechanism decides how (and whether) to restore the
// mask.
func ComputeInterruptible(d time.Duration) Next {
	return Next{req: request{kind: reqCompute, dur: d, interruptible: true}}
}

// SleepUntil blocks until the absolute virtual time at (clock_nanosleep
// with TIMER_ABSTIME). A wake-up from sleep is priced as a job-release
// dispatch; a time already reached completes immediately.
func SleepUntil(at engine.Time) Next {
	return Next{req: request{kind: reqSleepUntil, at: at}}
}

// Sleep blocks for the duration d, measured from the instant the action is
// executed.
func Sleep(d time.Duration) Next {
	return Next{req: request{kind: reqSleepUntil, dur: d, rel: true}}
}

// CondWait blocks on cv until signalled (pthread_cond_wait).
func CondWait(cv *CondVar) Next {
	return Next{req: request{kind: reqCondWait, cv: cv}}
}

// CondSignal wakes the longest-waiting thread blocked on cv, if any
// (pthread_cond_signal). Waking a thread on another core additionally pays
// the cross-core transfer penalty.
func CondSignal(cv *CondVar) Next {
	return Next{req: request{kind: reqCondSignal, cv: cv}}
}

// CondBroadcast wakes every thread blocked on cv (pthread_cond_broadcast).
// RT-Seed deliberately does not use broadcast for optional parts — signals
// go to specific threads as their jobs are dispatched — but the primitive
// exists for completeness and for the ablation benchmarks.
func CondBroadcast(cv *CondVar) Next {
	return Next{req: request{kind: reqCondBroadcast, cv: cv}}
}

// TimerSet arms the thread's one-shot SIGALRM timer at absolute time at
// (timer_settime, TIMER_ABSTIME), replacing any armed timer.
func TimerSet(at engine.Time) Next {
	return Next{req: request{kind: reqTimerSet, at: at}}
}

// TimerStop disarms the timer and discards a pending SIGALRM.
func TimerStop() Next {
	return Next{req: request{kind: reqTimerStop}}
}

// SetAlarmMask blocks (true) or unblocks (false) SIGALRM for the thread
// (pthread_sigmask).
func SetAlarmMask(masked bool) Next {
	return Next{req: request{kind: reqSetAlarmMask, mask: masked}}
}

// Yield relinquishes the CPU to the back of the caller's priority level
// (sched_yield under SCHED_FIFO). With no equal-or-higher-priority thread
// ready, the caller continues after the switch cost.
func Yield() Next {
	return Next{req: request{kind: reqYield}}
}

// ChargeOp burns the cost of one machine primitive on the calling CPU; used
// for explicitly-modelled middleware work such as sigsetjmp/siglongjmp.
func ChargeOp(op machine.Op) Next {
	return Next{req: request{kind: reqChargeOp, op: op}}
}

// ChargeOpRemote burns the cost of op directed at hardware thread to,
// including the cross-core penalty when to is on a different core.
func ChargeOpRemote(op machine.Op, to machine.HWThread) Next {
	return Next{req: request{kind: reqChargeOpRemote, op: op, remote: to}}
}

// MutexLock acquires m, blocking in FIFO order while it is held. Locking a
// mutex the caller already holds panics.
func MutexLock(m *Mutex) Next {
	return Next{req: request{kind: reqMutexLock, mutex: m}}
}

// MutexUnlock releases m and hands it to the longest-waiting contender, if
// any. It panics if the caller does not hold m: unlocking someone else's
// mutex is always a program bug.
func MutexUnlock(m *Mutex) Next {
	return Next{req: request{kind: reqMutexUnlock, mutex: m}}
}

// Migrate re-pins the calling thread to cpu (sched_setaffinity at runtime)
// and reschedules it there. The thread pays the cross-core migration cost —
// a context switch plus the transfer of its working set — which is exactly
// the overhead the paper's §IV-B design discussion holds against global
// scheduling. Migrating to the current CPU is a no-op that completes
// immediately.
func Migrate(cpu machine.HWThread) Next {
	return Next{req: request{kind: reqMigrate, remote: cpu}}
}

// Done ends the body: the thread exits.
func Done() Next {
	return Next{req: request{kind: reqExit}}
}

// NewBodyThread creates a simulated thread running body, a resumable
// continuation the kernel executes inline; no goroutine is ever created for
// it. The thread is not started. It returns an error for a nil body and for
// out-of-range priorities or CPUs.
func (k *Kernel) NewBodyThread(cfg ThreadConfig, body Body) (*Thread, error) {
	if body == nil {
		return nil, fmt.Errorf("kernel: nil continuation body")
	}
	return k.newThread(cfg, body)
}

// MustNewBodyThread is NewBodyThread for statically-valid configuration.
func (k *Kernel) MustNewBodyThread(cfg ThreadConfig, body Body) *Thread {
	t, err := k.NewBodyThread(cfg, body)
	if err != nil {
		panic(err)
	}
	return t
}

// resumeThread hands the CPU to t's host code: it delivers the previous
// action's outcome to the body's Step, obtains the next action, and
// executes it. Exactly one thread runs host code at a time. The loop is a
// trampoline: actions that resolve without suspending the thread
// (uncontended MutexLock, SetAlarmMask, a sleep already due, a zero-length
// compute) re-enter resumeThread, which then only records the outcome
// instead of recursing, so the stack never grows with the body's program.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) resumeThread(t *Thread, r Resume) {
	t.stepReply = r
	t.stepPending = true
	if t.stepping {
		return
	}
	t.stepping = true
	for t.stepPending && t.state != StateExited {
		t.stepPending = false
		r := t.stepReply
		r.First = t.stepFirst
		t.stepFirst = false
		k.applyNext(t, t.stepBody.Step(&t.tcb, r))
	}
	t.stepping = false
}

// applyNext executes the action a body returned. Degenerate actions — a
// zero-length compute, a migration to the current CPU — complete
// immediately without a kernel request: no service is charged and no trace
// record is written. That is part of the kernel's semantics, which the
// frozen trace corpus (testdata/frozen-traces.json) pins.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) applyNext(t *Thread, n Next) {
	req := n.req
	switch {
	case req.kind == 0:
		badNext(t) // cold path split out so applyNext stays lean
	case req.kind == reqCompute && req.dur <= 0:
		k.resumeThread(t, Resume{Completed: true})
		return
	case req.kind == reqMigrate && req.remote == t.cpuID:
		k.resumeThread(t, Resume{Completed: true})
		return
	case req.rel:
		req.rel = false
		req.at = k.eng.Now().Add(req.dur)
		req.dur = 0
	}
	t.req = req
	k.handleRequest(t)
}

func badNext(t *Thread) {
	panic(fmt.Sprintf("kernel: thread %v returned the zero Next; bodies must return an action constructor (Compute, Sleep, ..., Done)", t))
}
