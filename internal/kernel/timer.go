package kernel

import (
	"rtseed/internal/engine"
	"rtseed/internal/trace"
)

// finishTimerSet completes timer_settime (TIMER_ABSTIME) after its service
// cost elapsed: it arms the thread's one-shot SIGALRM timer at t.req.at,
// replacing any armed timer.
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

// finishTimerStop completes timer_settime with a zero value after its
// service cost elapsed: it disarms the timer and clears any pending,
// undelivered SIGALRM from it.
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
