package kernel

import (
	"fmt"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/list"
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

	body func(*TCB)

	// Goroutine handshake (goroutine executor only). The kernel sends on
	// run to let the thread's host code execute; the thread sends on
	// yielded after recording its next request. done is closed when the
	// goroutine ends. Continuation threads leave all three nil.
	run     chan resumeMsg
	yielded chan struct{}
	done    chan struct{}
	started bool
	killed  bool
	unbound bool

	// Continuation executor (body.go). stepBody non-nil selects it: the
	// kernel drives the body's state machine inline from its dispatch path
	// and the channels above are never created. tcb is the pre-allocated
	// TCB handed to every Step, stepReply/stepFirst the pending Resume, and
	// stepping/stepPending the trampoline state of stepThread.
	stepBody    Body
	tcb         TCB
	stepReply   replyMsg
	stepFirst   bool
	stepping    bool
	stepPending bool

	req   request
	reply replyMsg
	// pendingReply is delivered when the thread is next dispatched after
	// being woken from a blocking call.
	pendingReply replyMsg

	// qnext/qprev link the thread into its run-queue priority level, and
	// queued marks membership. A thread is in at most one ready queue, so
	// the links live in the Thread itself: enqueueing touches no extra
	// cache line and allocates nothing.
	qnext, qprev *Thread
	queued       bool
	// cvNode links the thread into a mutex or condition variable waiter
	// list; it is pre-allocated in NewThread and reused.
	cvNode *list.Node[*Thread]

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

	// Pre-allocated engine and service callbacks for the per-job hot paths
	// (timer fire, wake-up, compute completion, alarm interrupt return,
	// timer_settime service). Each reads its parameters from the thread's
	// fields at fire time — safe because the thread is parked in the kernel
	// call until the callback resumes it — so arming an event allocates no
	// closure.
	computeDoneFn   func()
	alarmFireFn     func()
	wakeFn          func()
	interruptDoneFn func()
	timerSetFn      func()
	timerStopFn     func()
	resumeOKFn      func()
	condWaitFn      func()
	condSignalFn    func()
	condBroadcastFn func()
	migrateFn       func()

	// Scratch parameters for the pre-allocated service callbacks above: the
	// condition variable or destination CPU of the thread's in-flight kernel
	// request, stashed by the handler and read back at fire time. Exactly one
	// request per thread is in flight, so a single slot each suffices.
	svcCV  *CondVar
	svcCPU machine.HWThread
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

// NewThread creates a simulated thread on the goroutine executor: the body
// is a blocking function hand-shaken with the kernel over channels. The
// body runs when the thread is started and first dispatched. NewThread
// returns an error for out-of-range priorities or CPUs. No production code
// uses NewThread; simulations build their threads with NewBodyThread. The
// goroutine form remains the differential oracle for the continuation
// executor and the executor for tests written as blocking scripts.
func (k *Kernel) NewThread(cfg ThreadConfig, body func(*TCB)) (*Thread, error) {
	t, err := k.newThread(cfg)
	if err != nil {
		return nil, err
	}
	t.body = body
	t.run = make(chan resumeMsg)
	t.yielded = make(chan struct{})
	t.done = make(chan struct{})
	return t, nil
}

// newThread builds and registers a thread with no body; the caller attaches
// either the goroutine or the continuation form.
func (k *Kernel) newThread(cfg ThreadConfig) (*Thread, error) {
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
	}
	t.tcb = TCB{t: t}
	// The thread owns its waiter-list node for its whole lifetime:
	// enqueueing links this pre-allocated node, so waiter lists never
	// allocate on the scheduling path. (The ready queues use the intrusive
	// qnext/qprev links and need no node at all.)
	t.cvNode = &list.Node[*Thread]{Value: t}
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
	//rtseed:kernelctx
	t.interruptDoneFn = func() {
		remaining := t.computeRemaining
		t.computeRemaining = 0
		k.resumeThread(t, replyMsg{completed: false, ran: t.computeRan, unran: remaining})
	}
	//rtseed:kernelctx
	t.timerSetFn = func() { k.finishTimerSet(t) }
	//rtseed:kernelctx
	t.timerStopFn = func() { k.finishTimerStop(t) }
	//rtseed:kernelctx
	t.resumeOKFn = func() { k.resumeThread(t, replyMsg{completed: true}) }
	//rtseed:kernelctx
	t.condWaitFn = func() {
		cv := t.svcCV
		t.svcCV = nil
		t.state = StateBlocked
		cv.waiters.PushBackNode(t.cvNode)
		k.emit(t, trace.KindBlock, 0)
		t.pendingReply = replyMsg{completed: true}
		k.releaseCPU(t)
	}
	//rtseed:kernelctx
	t.condSignalFn = func() {
		cv := t.svcCV
		t.svcCV = nil
		k.wakeOne(cv)
		k.resumeThread(t, replyMsg{completed: true})
	}
	//rtseed:kernelctx
	t.condBroadcastFn = func() {
		cv := t.svcCV
		t.svcCV = nil
		for cv.waiters.Len() > 0 {
			k.wakeOne(cv)
		}
		k.resumeThread(t, replyMsg{completed: true})
	}
	//rtseed:kernelctx
	t.migrateFn = func() {
		target := t.svcCPU
		old := t.cpuID
		k.setCurrent(k.cpu(old), nil)
		k.mach.UnbindRT(old)
		t.cpuID = target
		k.mach.BindRT(target)
		t.migrations++
		t.dispatchOp = machine.OpContextSwitch
		t.pendingReply = replyMsg{completed: true}
		k.makeReady(t, false)
		// The old CPU is free; let it pick its next thread.
		k.scheduleDispatch(k.cpu(old))
	}
	k.threads = append(k.threads, t)
	k.mach.BindRT(t.cpuID)
	return t, nil
}

// MustNewThread is NewThread for statically-valid configuration.
func (k *Kernel) MustNewThread(cfg ThreadConfig, body func(*TCB)) *Thread {
	t, err := k.NewThread(cfg, body)
	if err != nil {
		panic(err)
	}
	return t
}

// Start makes the thread ready at the current virtual time. A goroutine
// body gets its host goroutine here; a continuation body needs none — its
// first Step runs inline at the first dispatch.
//
//rtseed:kernelctx-entry quiescent setup: runs while the engine is stopped, serialized with the event loop
func (t *Thread) Start() {
	if t.started {
		panic("kernel: thread started twice")
	}
	t.started = true
	if t.stepBody == nil {
		go t.main()
	}
	t.k.makeReady(t, false)
}

// killSentinel unwinds a simulated thread's goroutine during Shutdown.
type killSentinel struct{}

func (t *Thread) main() {
	defer close(t.done)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); ok {
				t.state = StateExited
				return
			}
			panic(r)
		}
	}()
	// Wait for first dispatch.
	msg := <-t.run
	if msg.kill {
		panic(killSentinel{})
	}
	t.body(&TCB{t: t})
	// Normal exit: report it to the kernel, which is waiting in
	// resumeThread.
	t.req = request{kind: reqExit}
	t.yielded <- struct{}{}
}

// kill force-terminates a thread parked in a kernel call. A continuation
// thread has no goroutine to unwind: marking it exited is the whole job.
// A goroutine thread's host goroutine is parked in syscall and must be
// resumed with the kill flag so it panics out through killSentinel.
func (t *Thread) kill() {
	if t.stepBody != nil || !t.started || t.state == StateExited {
		t.state = StateExited
		t.k.unbind(t)
		return
	}
	t.killed = true
	t.run <- resumeMsg{kill: true}
	<-t.done
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

type resumeMsg struct {
	kill bool
}

type replyMsg struct {
	completed bool
	ran       time.Duration
	unran     time.Duration
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
	// rel marks a continuation Sleep whose absolute wake time is resolved
	// when the action executes (applyNext); the blocking TCB.Sleep resolves
	// it at call time instead, which is the same virtual instant.
	rel    bool
	op     machine.Op
	remote machine.HWThread
	mutex  *Mutex
}

// syscall parks the calling thread goroutine, hands control to the kernel,
// and returns the kernel's reply when the thread is resumed.
func (t *Thread) syscall(req request) replyMsg {
	t.req = req
	t.yielded <- struct{}{}
	msg := <-t.run
	if msg.kill {
		panic(killSentinel{})
	}
	return t.reply
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
		k.handleCondWait(t, req)
	case reqCondSignal:
		k.handleCondSignal(t, req)
	case reqCondBroadcast:
		k.handleCondBroadcast(t, req)
	case reqTimerSet:
		k.handleTimerSet(t, req)
	case reqTimerStop:
		k.handleTimerStop(t)
	case reqSetAlarmMask:
		k.handleSetAlarmMask(t, req)
	case reqChargeOp:
		cost := k.mach.Cost(req.op, t.cpuID)
		k.service(t, cost, t.resumeOKFn)
	case reqChargeOpRemote:
		cost := k.mach.RemoteCost(req.op, t.cpuID, req.remote)
		k.service(t, cost, t.resumeOKFn)
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
		k.resumeThread(t, replyMsg{completed: true})
		return
	}
	t.state = StateSleeping
	k.emit(t, trace.KindSleep, 0)
	k.releaseCPU(t)
	t.pendingReply = replyMsg{completed: true}
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
