package kernel

import (
	"math/bits"
	"time"

	"rtseed/internal/machine"
)

// threadFIFO is an intrusive FIFO of threads linked through
// Thread.qnext/qprev, and the kernel's one thread queue: every run-queue
// priority level is one, and so is the waiter list of every CondVar and
// Mutex. A thread waits in at most one queue at a time — a run-queue level
// while ready, one waiter list while blocked — so the one pair of links in
// the Thread serves them all, and queueing touches no extra cache line and
// allocates nothing. A thread in no queue has nil links.
type threadFIFO struct {
	head, tail *Thread
}

// pushBack appends t.
//
//rtseed:noalloc
func (f *threadFIFO) pushBack(t *Thread) {
	t.qprev = f.tail
	if f.tail != nil {
		f.tail.qnext = t
	} else {
		f.head = t
	}
	f.tail = t
}

// pushFront prepends t.
//
//rtseed:noalloc
func (f *threadFIFO) pushFront(t *Thread) {
	t.qnext = f.head
	if f.head != nil {
		f.head.qprev = t
	} else {
		f.tail = t
	}
	f.head = t
}

// popFront removes and returns the first thread, or nil when empty.
//
//rtseed:noalloc
func (f *threadFIFO) popFront() *Thread {
	t := f.head
	if t == nil {
		return nil
	}
	f.head = t.qnext
	if f.head != nil {
		f.head.qprev = nil
	} else {
		f.tail = nil
	}
	t.qnext = nil
	return t
}

// remove unlinks t, which must be in f.
//
//rtseed:noalloc
func (f *threadFIFO) remove(t *Thread) {
	if t.qprev != nil {
		t.qprev.qnext = t.qnext
	} else {
		f.head = t.qnext
	}
	if t.qnext != nil {
		t.qnext.qprev = t.qprev
	} else {
		f.tail = t.qprev
	}
	t.qnext = nil
	t.qprev = nil
}

// len counts the queued threads by walking the links.
func (f *threadFIFO) len() int {
	n := 0
	for t := f.head; t != nil; t = t.qnext {
		n++
	}
	return n
}

// runQueue is one CPU's SCHED_FIFO ready queue: 99 FIFO levels, larger
// priority values first (paper Fig. 5).
//
// A two-word occupancy bitmap mirrors the levels — bit p is set exactly
// when levels[p] is non-empty — so finding the highest ready priority is one
// find-first-set per word (Linux's sched_find_first_bit technique) instead
// of a scan over 99 list heads. Every operation is O(1): enqueue and remove
// maintain the bitmap as their level transitions empty↔non-empty, and pop /
// topPriority locate the top level with bits.Len64.
type runQueue struct {
	// bitmap has bit p of word p/64 set iff levels[p] is non-empty.
	// Priorities span [MinPriority, MaxPriority] = [1, 99], so two words
	// cover every level with room to spare.
	bitmap [2]uint64
	levels [MaxPriority + 1]threadFIFO
	count  int
}

// enqueue adds t to its priority level, at the head when atFront is set
// (SCHED_FIFO places preempted threads back at the head of their level).
// It panics with a descriptive message if t's priority is outside the
// scheduler's [MinPriority, MaxPriority] band rather than faulting on a
// bare array index.
//
//rtseed:noalloc
//rtseed:kernelctx
func (q *runQueue) enqueue(t *Thread, atFront bool) {
	if t.prio < MinPriority || t.prio > MaxPriority {
		panic("kernel: enqueue priority outside [MinPriority, MaxPriority]")
	}
	if t.queued {
		panic("kernel: thread already enqueued")
	}
	t.queued = true
	if atFront {
		q.levels[t.prio].pushFront(t)
	} else {
		q.levels[t.prio].pushBack(t)
	}
	q.bitmap[uint(t.prio)>>6] |= 1 << (uint(t.prio) & 63)
	q.count++
}

// pop removes and returns the highest-priority thread, or nil when empty.
//
//rtseed:noalloc
//rtseed:kernelctx
func (q *runQueue) pop() *Thread {
	if q.count == 0 {
		return nil
	}
	p := q.top()
	lvl := &q.levels[p]
	t := lvl.popFront()
	if lvl.head == nil {
		q.bitmap[uint(p)>>6] &^= 1 << (uint(p) & 63)
	}
	t.queued = false
	q.count--
	return t
}

// remove detaches t from the queue; no-op if it is not queued.
//
//rtseed:noalloc
//rtseed:kernelctx
func (q *runQueue) remove(t *Thread) {
	if !t.queued {
		return
	}
	lvl := &q.levels[t.prio]
	lvl.remove(t)
	if lvl.head == nil {
		q.bitmap[uint(t.prio)>>6] &^= 1 << (uint(t.prio) & 63)
	}
	t.queued = false
	q.count--
}

// top returns the highest occupied priority level. The queue must be
// non-empty; callers guard on count.
//
//rtseed:noalloc
func (q *runQueue) top() int {
	if w := q.bitmap[1]; w != 0 {
		return bits.Len64(w) + 63
	}
	return bits.Len64(q.bitmap[0]) - 1
}

// topPriority returns the highest priority with a ready thread, or -1 when
// the queue is empty.
//
//rtseed:noalloc
func (q *runQueue) topPriority() int {
	if q.count == 0 {
		return -1
	}
	return q.top()
}

// len returns the number of queued threads.
func (q *runQueue) len() int { return q.count }

// cpu is the per-hardware-thread scheduling state.
type cpu struct {
	id      machine.HWThread
	runq    *runQueue
	current *Thread
	// busy marks a non-preemptible window: a context switch in progress or
	// a kernel service executing on behalf of current.
	busy bool
	// busyTime accumulates time spent running compute or services.
	busyTime time.Duration

	// Pre-allocated engine callbacks. At most one dispatch and one kernel
	// service are in flight per CPU (both guarded by busy), so their
	// parameters live in fields — a service's in current's request — and
	// the closures are built once in New: the engine's steady-state event
	// cycle then allocates nothing.
	dispatchT   *Thread
	dispatchFn  func()
	serviceCost time.Duration
	serviceFn   func()
}

func newCPU(id machine.HWThread) *cpu {
	return &cpu{id: id, runq: &runQueue{}}
}
