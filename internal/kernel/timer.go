package kernel

import (
	"rtseed/internal/engine"
	"rtseed/internal/machine"
	"rtseed/internal/trace"
)

// handleTimerSet arms the thread's one-shot SIGALRM timer at an absolute
// virtual time (timer_settime with TIMER_ABSTIME), replacing any armed
// timer.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) handleTimerSet(t *Thread, req request) {
	cost := k.mach.Cost(machine.OpTimerProgram, t.cpuID)
	k.service(t, cost, t.timerSetFn)
}

// finishTimerSet completes timer_settime after its service cost elapsed. The
// requested expiry is read from t.req, which cannot change while t is parked
// in the call.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) finishTimerSet(t *Thread) {
	k.eng.Cancel(t.timer)
	at := t.req.at
	if at < k.eng.Now() {
		at = k.eng.Now()
	}
	t.timer = k.eng.Schedule(at, prioTimer, t.alarmFireFn)
	k.emit(t, trace.KindTimerArm, uint64(at))
	k.resumeThread(t, Resume{Completed: true})
}

// handleTimerStop disarms the timer (timer_settime with a zero value) and
// clears any pending, undelivered SIGALRM from it.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) handleTimerStop(t *Thread) {
	cost := k.mach.Cost(machine.OpTimerProgram, t.cpuID)
	k.service(t, cost, t.timerStopFn)
}

// finishTimerStop completes the disarm after its service cost elapsed.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) finishTimerStop(t *Thread) {
	k.eng.Cancel(t.timer)
	t.timer = engine.Event{}
	t.pendingAlarm = false
	k.resumeThread(t, Resume{Completed: true})
}

// deliverAlarm raises SIGALRM for t. If t is in an interruptible compute
// burst with the signal unmasked, the burst is terminated immediately;
// otherwise the signal stays pending and is delivered when the thread next
// enters an interruptible burst with the signal unmasked — or never, if the
// mask is never cleared (the try/catch pathology of Table I).
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) deliverAlarm(t *Thread) {
	t.pendingAlarm = true
	k.emit(t, trace.KindTimerFire, 0)
	k.checkAlarm(t)
}

// checkAlarm delivers a pending SIGALRM if t is currently interruptible.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) checkAlarm(t *Thread) {
	if !t.pendingAlarm || t.alarmMasked || !t.interruptible {
		return
	}
	if t.state != StateComputing {
		// Preempted mid-burst or between bursts: delivery happens when the
		// burst resumes (startCompute re-checks).
		return
	}
	k.interruptCompute(t)
}

// handleSetAlarmMask blocks or unblocks SIGALRM for the thread
// (pthread_sigmask). Unblocking with a signal pending delivers it at the
// thread's next interruptible burst.
//
//rtseed:kernelctx
func (k *Kernel) handleSetAlarmMask(t *Thread, req request) {
	t.alarmMasked = req.mask
	k.resumeThread(t, Resume{Completed: true})
}
