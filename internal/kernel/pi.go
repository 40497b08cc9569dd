package kernel

// Priority inheritance for mutexes (PTHREAD_PRIO_INHERIT): while a thread
// holds a PI mutex that a higher-priority thread is blocked on, the holder
// runs at the blocked thread's priority, bounding priority inversion. The
// RT-Seed ending path does not need it (the critical section runs at the
// optional threads' common NRTQ priority), but a substrate claiming
// SCHED_FIFO fidelity should offer it, and the tests demonstrate the
// unbounded-inversion hazard it removes.

// NewPIMutex returns a mutex with priority inheritance enabled.
func (k *Kernel) NewPIMutex(name string) *Mutex {
	m := k.NewMutex(name)
	m.inherit = true
	return m
}

// boostOwner raises the owner's effective priority to the highest blocked
// waiter's, requeueing it if it sits on a run queue.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) boostOwner(m *Mutex) {
	if !m.inherit || m.owner == nil {
		return
	}
	top := m.owner.basePrio()
	for w := m.waiters.head; w != nil; w = w.qnext {
		if w.prio > top {
			top = w.prio
		}
	}
	if top == m.owner.prio {
		return
	}
	if m.owner.base == 0 {
		m.owner.base = m.owner.prio
	}
	k.setEffectivePriority(m.owner, top)
}

// restoreOwner drops t back to its base priority after it releases a PI
// mutex.
//
//rtseed:kernelctx
func (k *Kernel) restoreOwner(t *Thread) {
	if t.base == 0 {
		return
	}
	base := t.base
	t.base = 0
	k.setEffectivePriority(t, base)
}

// setEffectivePriority changes a thread's scheduling priority in place,
// fixing up the run queue when the thread is ready.
//
//rtseed:kernelctx
func (k *Kernel) setEffectivePriority(t *Thread, prio int) {
	if t.prio == prio {
		return
	}
	c := k.cpu(t.cpuID)
	queued := t.queued
	if queued {
		c.runq.remove(t)
	}
	t.prio = prio
	if queued {
		c.runq.enqueue(t, false)
		k.considerCPU(c)
	}
}

func (t *Thread) basePrio() int {
	if t.base == 0 {
		return t.prio
	}
	return t.base
}
