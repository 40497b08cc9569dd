package kernel

import (
	"rtseed/internal/list"
	"rtseed/internal/machine"
	"rtseed/internal/trace"
)

// Mutex is a simulated blocking mutex with FIFO hand-off. RT-Seed's ending
// path uses one per process to model the serialization real POSIX imposes
// on simultaneous optional-part terminations: timer-expiry signal delivery
// takes the process-wide sighand lock and endOptionalPart updates shared
// task state, so np parts terminating at the same optional deadline drain
// one at a time (the O(np) ending overhead of Fig. 13).
type Mutex struct {
	name    string
	owner   *Thread
	waiters *list.List[*Thread]
	// inherit enables priority inheritance (see NewPIMutex).
	inherit bool
}

// NewMutex returns an unlocked mutex. The name appears in diagnostics.
func (k *Kernel) NewMutex(name string) *Mutex {
	return &Mutex{name: name, waiters: list.New[*Thread]()}
}

// Name returns the mutex's name.
func (m *Mutex) Name() string { return m.name }

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.owner != nil }

// Waiters returns the number of blocked contenders.
func (m *Mutex) Waiters() int { return m.waiters.Len() }

//rtseed:kernelctx
func (k *Kernel) handleMutexLock(t *Thread, req request) {
	m := req.mutex
	if m.owner == nil {
		m.owner = t
		k.resumeThread(t, Resume{Completed: true})
		return
	}
	if m.owner == t {
		panic("kernel: recursive mutex lock")
	}
	t.state = StateBlocked
	m.waiters.PushBackNode(t.cvNode)
	k.emit(t, trace.KindBlock, 0)
	k.boostOwner(m)
	k.releaseCPU(t)
}

//rtseed:kernelctx
func (k *Kernel) handleMutexUnlock(t *Thread, req request) {
	m := req.mutex
	if m.owner != t {
		panic("kernel: unlock of mutex not held by caller")
	}
	if m.inherit {
		k.restoreOwner(t)
	}
	if n := m.waiters.PopFront(); n != nil {
		w := n.Value
		m.owner = w
		w.dispatchOp = machine.OpContextSwitch
		k.makeReady(w, false)
		k.boostOwner(m)
	} else {
		m.owner = nil
	}
	k.resumeThread(t, Resume{Completed: true})
}
