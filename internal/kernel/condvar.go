package kernel

import (
	"rtseed/internal/list"
	"rtseed/internal/machine"
)

// CondVar is a simulated condition variable in the style of pthread_cond_t.
// The simulation serializes all host code, so the associated mutex of the
// POSIX API is implicit; Wait atomically blocks and Signal wakes the
// longest-waiting thread, exactly as RT-Seed uses per-optional-thread
// condition variables (paper Fig. 6/7).
type CondVar struct {
	name    string
	waiters *list.List[*Thread]
}

// NewCondVar returns a condition variable. The name appears in diagnostics.
func (k *Kernel) NewCondVar(name string) *CondVar {
	return &CondVar{name: name, waiters: list.New[*Thread]()}
}

// Name returns the condition variable's name.
func (cv *CondVar) Name() string { return cv.name }

// Waiters returns the number of blocked threads.
func (cv *CondVar) Waiters() int { return cv.waiters.Len() }

// The condvar handlers only price the call: finishService blocks on, or
// wakes the waiters of, the condition variable in the caller's request once
// the service cost has elapsed. A cond_wait is priced in handleRequest.

//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) handleCondSignal(t *Thread, req request) {
	// Price the signal with the cross-core transfer penalty when the woken
	// thread lives on another core.
	target := req.cv.waiters.Front()
	var cost = k.mach.Cost(machine.OpCondSignal, t.cpuID)
	if target != nil {
		cost = k.mach.RemoteCost(machine.OpCondSignal, t.cpuID, target.Value.cpuID)
	}
	k.service(t, cost)
}

//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) handleCondBroadcast(t *Thread, req request) {
	cost := k.mach.Cost(machine.OpCondSignal, t.cpuID)
	// Each additional waiter adds another signal's worth of work.
	for i := 1; i < req.cv.waiters.Len(); i++ {
		cost += k.mach.Cost(machine.OpCondSignal, t.cpuID)
	}
	k.service(t, cost)
}

// wakeOne unblocks the front waiter of cv, if any.
//
//rtseed:kernelctx
func (k *Kernel) wakeOne(cv *CondVar) {
	n := cv.waiters.PopFront()
	if n == nil {
		return
	}
	w := n.Value
	w.dispatchOp = machine.OpContextSwitch
	k.makeReady(w, false)
}
