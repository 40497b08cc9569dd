package kernel

import (
	"fmt"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/machine"
	"rtseed/internal/trace"
)

// Priority bounds of SCHED_FIFO: larger values denote higher priority.
const (
	MinPriority = 1
	MaxPriority = 99
)

// State is a simulated thread's scheduling state.
type State int

// Thread states.
const (
	StateNew State = iota + 1
	StateReady
	StateRunning   // on CPU, inside a kernel service
	StateComputing // on CPU, burning a compute burst
	StateBlocked   // waiting on a condition variable
	StateSleeping  // in clock_nanosleep
	StateExited
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateComputing:
		return "computing"
	case StateBlocked:
		return "blocked"
	case StateSleeping:
		return "sleeping"
	case StateExited:
		return "exited"
	default:
		return "unknown"
	}
}

// ThreadConfig configures a new simulated thread.
type ThreadConfig struct {
	// Name identifies the thread in traces.
	Name string
	// Priority is the SCHED_FIFO priority, in [MinPriority, MaxPriority].
	Priority int
	// CPU pins the thread to a hardware thread (sched_setaffinity with a
	// single CPU, as RT-Seed does).
	CPU machine.HWThread
}

// Thread is a simulated SCHED_FIFO thread.
type Thread struct {
	id    int
	name  string
	prio  int
	cpuID machine.HWThread
	k     *Kernel
	state State

	// started rejects a second Start; unbound marks the machine binding
	// released (see unbind).
	started bool
	unbound bool

	// The body and its trampoline state (see resumeThread). tcb is the
	// pre-allocated TCB handed to every Step; stepReply and stepFirst make up
	// the pending Resume; stepping and stepPending flatten actions that
	// complete without suspending the thread.
	stepBody    Body
	tcb         TCB
	stepReply   Resume
	stepFirst   bool
	stepping    bool
	stepPending bool

	// req is the kernel call the thread is parked in. It stays put until the
	// call completes, so a costed service reads every parameter of the call
	// from here when it finishes (finishService).
	req request

	// qnext/qprev link the thread into the one threadFIFO it waits in: its
	// run-queue priority level while ready, or the waiter list of one
	// condition variable or mutex while blocked. A thread is never in two
	// queues at once, so one pair of links serves them all. queued marks
	// run-queue membership only.
	qnext, qprev *Thread
	queued       bool

	// dispatchOp prices the next dispatch of this thread: OpDispatch for a
	// wake-up from sleep (job release), OpContextSwitch otherwise.
	dispatchOp machine.Op

	// Compute burst bookkeeping. computeRemaining and computeRan are
	// nominal work; computeFactor is the SMT throughput factor sampled at
	// the current segment's start (interruptible bursts only), stretching
	// the wall time a unit of work takes.
	inCompute        bool
	interruptible    bool
	computeRemaining time.Duration
	computeRan       time.Duration
	computeFactor    float64
	computeStart     engine.Time
	computeWall      time.Duration
	computeDone      engine.Event //rtseed:handle-ok cleared or re-armed on every burst transition; interruptCompute gates on Scheduled

	// cpuConsumed accumulates compute time across bursts (see CPUTime).
	cpuConsumed time.Duration
	// migrations counts runtime re-pinnings (see Migrations).
	migrations int
	// base is the thread's base priority while boosted by priority
	// inheritance (0 = not boosted).
	base int

	// SIGALRM state.
	alarmMasked  bool
	pendingAlarm bool
	timer        engine.Event //rtseed:handle-ok re-armed under Cancel by finishTimerSet and zeroed on disarm/exit

	// Pre-allocated engine callbacks for the events that fire independently
	// of the thread's kernel call: compute completion, timer fire and sleep
	// wake-up. Each reads its parameters from the thread's fields at fire
	// time, so arming an event allocates no closure. Costed kernel services
	// complete through the CPU's one serviceFn instead.
	computeDoneFn func()
	alarmFireFn   func()
	wakeFn        func()
}

// ID returns the thread's creation-order identifier.
func (t *Thread) ID() int { return t.id }

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// Priority returns the thread's fixed priority.
func (t *Thread) Priority() int { return t.prio }

// CPU returns the hardware thread the thread is pinned to.
func (t *Thread) CPU() machine.HWThread { return t.cpuID }

// State returns the thread's current scheduling state.
func (t *Thread) State() State { return t.state }

// String implements fmt.Stringer.
func (t *Thread) String() string {
	return fmt.Sprintf("%s(prio=%d,cpu=%d)", t.name, t.prio, t.cpuID)
}

func (t *Thread) preemptible() bool { return t.state == StateComputing }

// newThread builds and registers a thread running body.
func (k *Kernel) newThread(cfg ThreadConfig, body Body) (*Thread, error) {
	if cfg.Priority < MinPriority || cfg.Priority > MaxPriority {
		return nil, fmt.Errorf("kernel: priority %d out of range [%d,%d]", cfg.Priority, MinPriority, MaxPriority)
	}
	if !k.mach.Topology().Contains(cfg.CPU) {
		return nil, fmt.Errorf("kernel: cpu %d outside topology", cfg.CPU)
	}
	k.nextTID++
	t := &Thread{
		id:         k.nextTID,
		name:       cfg.Name,
		prio:       cfg.Priority,
		cpuID:      cfg.CPU,
		k:          k,
		state:      StateNew,
		dispatchOp: machine.OpContextSwitch,
		stepBody:   body,
		stepFirst:  true,
	}
	t.tcb = TCB{t: t}
	// The pre-allocated per-thread callbacks below all run inside the
	// engine's event dispatch.
	//rtseed:kernelctx
	t.computeDoneFn = func() { k.finishCompute(t) }
	//rtseed:kernelctx
	t.alarmFireFn = func() {
		t.timer = engine.Event{}
		k.deliverAlarm(t)
	}
	//rtseed:kernelctx
	t.wakeFn = func() {
		if t.state != StateSleeping {
			return
		}
		t.dispatchOp = machine.OpDispatch
		k.makeReady(t, false)
	}
	k.threads = append(k.threads, t)
	k.mach.BindRT(t.cpuID)
	return t, nil
}

// Start makes the thread ready at the current virtual time. Its body's
// first Step runs inline at the thread's first dispatch.
//
//rtseed:kernelctx-entry quiescent setup: runs while the engine is stopped, serialized with the event loop
func (t *Thread) Start() {
	if t.started {
		panic("kernel: thread started twice")
	}
	t.started = true
	t.k.makeReady(t, false)
}

// kill marks a thread exited at Shutdown and releases its machine binding.
// A parked thread has nothing to unwind: its body is simply never stepped
// again.
func (t *Thread) kill() {
	t.state = StateExited
	t.k.unbind(t)
}

// unbind releases the thread's machine binding exactly once.
func (k *Kernel) unbind(t *Thread) {
	if t.unbound {
		return
	}
	t.unbound = true
	k.mach.UnbindRT(t.cpuID)
}

type requestKind int

const (
	reqCompute requestKind = iota + 1
	reqSleepUntil
	reqCondWait
	reqCondSignal
	reqCondBroadcast
	reqTimerSet
	reqTimerStop
	reqSetAlarmMask
	reqChargeOp
	reqChargeOpRemote
	reqMutexLock
	reqMutexUnlock
	reqMigrate
	reqYield
	reqExit
)

// String implements fmt.Stringer, naming the syscall a request models.
func (k requestKind) String() string {
	switch k {
	case reqCompute:
		return "compute"
	case reqSleepUntil:
		return "sleep-until"
	case reqCondWait:
		return "cond-wait"
	case reqCondSignal:
		return "cond-signal"
	case reqCondBroadcast:
		return "cond-broadcast"
	case reqTimerSet:
		return "timer-set"
	case reqTimerStop:
		return "timer-stop"
	case reqSetAlarmMask:
		return "set-alarm-mask"
	case reqChargeOp:
		return "charge-op"
	case reqChargeOpRemote:
		return "charge-op-remote"
	case reqMutexLock:
		return "mutex-lock"
	case reqMutexUnlock:
		return "mutex-unlock"
	case reqMigrate:
		return "migrate"
	case reqYield:
		return "yield"
	case reqExit:
		return "exit"
	default:
		return "unknown"
	}
}

type request struct {
	kind          requestKind
	dur           time.Duration
	at            engine.Time
	cv            *CondVar
	interruptible bool
	mask          bool
	// rel marks a Sleep whose absolute wake time is resolved when the
	// action executes (applyNext).
	rel    bool
	op     machine.Op
	remote machine.HWThread
	mutex  *Mutex
}

// handleRequest processes the kernel request recorded by the thread that
// just yielded. Exactly one of the branches either resumes the thread
// (directly or via a costed service) or blocks it and releases its CPU.
//
//rtseed:kernelctx
func (k *Kernel) handleRequest(t *Thread) {
	req := t.req
	switch req.kind {
	case reqCompute:
		k.handleCompute(t, req)
	case reqSleepUntil:
		k.handleSleep(t, req)
	case reqCondWait:
		k.service(t, k.mach.Cost(machine.OpCondWait, t.cpuID))
	case reqCondSignal:
		k.handleCondSignal(t, req)
	case reqCondBroadcast:
		k.handleCondBroadcast(t, req)
	case reqTimerSet, reqTimerStop:
		k.service(t, k.mach.Cost(machine.OpTimerProgram, t.cpuID))
	case reqSetAlarmMask:
		k.handleSetAlarmMask(t, req)
	case reqChargeOp:
		k.service(t, k.mach.Cost(req.op, t.cpuID))
	case reqChargeOpRemote:
		k.service(t, k.mach.RemoteCost(req.op, t.cpuID, req.remote))
	case reqMutexLock:
		k.handleMutexLock(t, req)
	case reqMutexUnlock:
		k.handleMutexUnlock(t, req)
	case reqMigrate:
		k.handleMigrate(t, req)
	case reqYield:
		k.handleYield(t)
	case reqExit:
		k.handleExit(t)
	default:
		panic(fmt.Sprintf("kernel: unknown request %d", req.kind))
	}
}

//rtseed:kernelctx
func (k *Kernel) handleCompute(t *Thread, req request) {
	t.computeRemaining = req.dur
	t.computeRan = 0
	t.computeFactor = 1
	t.interruptible = req.interruptible
	c := k.cpu(t.cpuID)
	// Yield to a higher-priority ready thread before starting the burst.
	if top := c.runq.topPriority(); top > t.prio {
		t.state = StateReady
		t.inCompute = true
		t.dispatchOp = machine.OpContextSwitch
		k.emit(t, trace.KindPreempt, 0)
		k.setCurrent(c, nil)
		c.runq.enqueue(t, true)
		k.scheduleDispatch(c)
		return
	}
	k.startCompute(t)
}

//rtseed:kernelctx
func (k *Kernel) handleSleep(t *Thread, req request) {
	if req.at <= k.eng.Now() {
		k.resumeThread(t, Resume{Completed: true})
		return
	}
	t.state = StateSleeping
	k.emit(t, trace.KindSleep, 0)
	k.releaseCPU(t)
	k.eng.Schedule(req.at, prioRelease, t.wakeFn)
}

//rtseed:kernelctx
func (k *Kernel) handleExit(t *Thread) {
	t.state = StateExited
	k.emit(t, trace.KindExit, 0)
	k.eng.Cancel(t.timer)
	t.timer = engine.Event{}
	k.unbind(t)
	k.releaseCPU(t)
}
