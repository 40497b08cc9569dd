package kernel

import (
	"slices"
	"testing"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/machine"
	"rtseed/internal/trace"
)

func TestThreadRunsBody(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	ran := false
	th := script(k, "t", 50, 0,
		act(Compute(time.Millisecond)),
		func(c *TCB, r Resume) Next {
			ran = r.Completed
			return Done()
		})
	th.Start()
	k.Run()
	if !ran {
		t.Fatal("thread body did not run")
	}
	if th.State() != StateExited {
		t.Fatalf("state %v, want exited", th.State())
	}
}

func TestComputeAdvancesVirtualTime(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var end engine.Time
	th := script(k, "t", 50, 0,
		act(Compute(10*time.Millisecond)),
		func(c *TCB, r Resume) Next {
			end = c.Now()
			return Done()
		})
	th.Start()
	k.Run()
	// End time = dispatch cost + 10ms compute.
	if end < engine.At(10*time.Millisecond) {
		t.Fatalf("end %v, want >= 10ms", end)
	}
	if end > engine.At(11*time.Millisecond) {
		t.Fatalf("end %v, dispatch overhead implausibly large", end)
	}
}

func TestHigherPriorityPreempts(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var loEnd, hiEnd engine.Time
	lo := script(k, "lo", 50, 0,
		act(Compute(10*time.Millisecond)),
		func(c *TCB, r Resume) Next {
			loEnd = c.Now()
			return Done()
		})
	hi := script(k, "hi", 60, 0,
		act(SleepUntil(engine.At(2*time.Millisecond))),
		act(Compute(5*time.Millisecond)),
		func(c *TCB, r Resume) Next {
			hiEnd = c.Now()
			return Done()
		})
	lo.Start()
	hi.Start()
	k.Run()
	if hiEnd >= loEnd {
		t.Fatalf("high-priority thread should finish first: hi=%v lo=%v", hiEnd, loEnd)
	}
	// lo must resume and complete its full 10ms of compute: total runtime
	// >= 15ms of compute plus overheads.
	if loEnd < engine.At(15*time.Millisecond) {
		t.Fatalf("lo finished at %v; preemption lost compute time", loEnd)
	}
}

func TestEqualPriorityFIFONoPreemption(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var order []string
	mk := func(name string, d time.Duration) *Thread {
		return script(k, name, 50, 0,
			act(Compute(d)),
			func(c *TCB, r Resume) Next {
				order = append(order, name)
				return Done()
			})
	}
	a := mk("a", 5*time.Millisecond)
	b := mk("b", time.Millisecond)
	a.Start()
	b.Start()
	k.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("SCHED_FIFO order %v, want [a b]", order)
	}
}

func TestThreadsOnDifferentCPUsRunConcurrently(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var aEnd, bEnd engine.Time
	mk := func(name string, cpu machine.HWThread, end *engine.Time) *Thread {
		return script(k, name, 50, cpu,
			act(Compute(10*time.Millisecond)),
			func(c *TCB, r Resume) Next {
				*end = c.Now()
				return Done()
			})
	}
	a := mk("a", 0, &aEnd)
	b := mk("b", 1, &bEnd)
	a.Start()
	b.Start()
	k.Run()
	if aEnd > engine.At(11*time.Millisecond) || bEnd > engine.At(11*time.Millisecond) {
		t.Fatalf("parallel threads serialized: a=%v b=%v", aEnd, bEnd)
	}
}

func TestSleepUntilWakesAtAbsoluteTime(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var woke engine.Time
	th := script(k, "t", 50, 0,
		act(SleepUntil(engine.At(100*time.Millisecond))),
		func(c *TCB, r Resume) Next {
			woke = c.Now()
			return Done()
		})
	th.Start()
	k.Run()
	if woke < engine.At(100*time.Millisecond) {
		t.Fatalf("woke at %v, before the absolute deadline", woke)
	}
	if woke > engine.At(101*time.Millisecond) {
		t.Fatalf("woke at %v, dispatch latency implausible", woke)
	}
}

func TestSleepUntilPastReturnsImmediately(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var first, second engine.Time
	th := script(k, "t", 50, 0,
		act(Compute(5*time.Millisecond)),
		func(c *TCB, r Resume) Next {
			first = c.Now()
			return SleepUntil(engine.At(time.Millisecond)) // already past
		},
		func(c *TCB, r Resume) Next {
			second = c.Now()
			return Done()
		})
	th.Start()
	k.Run()
	if second != first {
		t.Fatalf("past sleep should be immediate: %v -> %v", first, second)
	}
}

func TestCondSignalWakesWaiter(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	cv := k.NewCondVar("cv")
	var consumerRan engine.Time
	consumer := script(k, "consumer", 60, 1,
		act(CondWait(cv)),
		func(c *TCB, r Resume) Next {
			consumerRan = c.Now()
			return Done()
		})
	producer := script(k, "producer", 50, 0,
		act(Compute(10*time.Millisecond)),
		act(CondSignal(cv)))
	consumer.Start()
	producer.Start()
	k.Run()
	if consumerRan == 0 {
		t.Fatal("consumer never woke")
	}
	if consumerRan < engine.At(10*time.Millisecond) {
		t.Fatalf("consumer woke at %v, before the signal", consumerRan)
	}
}

func TestCondSignalWithoutWaiterIsLost(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	cv := k.NewCondVar("cv")
	woke := false
	// Nobody is waiting yet; pthread semantics lose the signal.
	producer := script(k, "p", 50, 0, act(CondSignal(cv)))
	consumer := script(k, "c", 50, 1,
		act(SleepUntil(engine.At(time.Millisecond))),
		act(CondWait(cv)),
		func(c *TCB, r Resume) Next {
			woke = true
			return Done()
		})
	producer.Start()
	consumer.Start()
	k.Run()
	if woke {
		t.Fatal("signal before wait must be lost")
	}
	// The consumer was still blocked at shutdown, which force-exited it.
	if consumer.State() != StateExited {
		t.Fatalf("consumer state %v, want exited", consumer.State())
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	cv := k.NewCondVar("cv")
	woken := 0
	for i := 0; i < 3; i++ {
		script(k, "w", 60, machine.HWThread(i+1),
			act(CondWait(cv)),
			func(c *TCB, r Resume) Next {
				woken++
				return Done()
			}).Start()
	}
	script(k, "p", 50, 0,
		act(Compute(time.Millisecond)),
		act(CondBroadcast(cv))).Start()
	k.Run()
	if woken != 3 {
		t.Fatalf("broadcast woke %d, want 3", woken)
	}
}

// TestWaiterQueuesServeInArrivalOrder pins the order of both waiter lists.
// Threads sharing one CPU and one priority wake from a CondBroadcast in the
// order they waited, then acquire a contended mutex in the order they asked
// for it; each holder sleeps with the lock held so the others queue behind
// it. Waiters() is read at every step.
func TestWaiterQueuesServeInArrivalOrder(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	cv := k.NewCondVar("cv")
	m := k.NewMutex("m")
	const n = 4
	var waited, woke, locked, cvAhead, mutexBehind []int
	for i := 0; i < n; i++ {
		script(k, "w", 50, 0,
			func(c *TCB, r Resume) Next {
				waited = append(waited, i)
				cvAhead = append(cvAhead, cv.Waiters())
				return CondWait(cv)
			},
			func(c *TCB, r Resume) Next {
				woke = append(woke, i)
				if got := cv.Waiters(); got != 0 {
					t.Errorf("thread %d woke with %d condvar waiters left, want 0", i, got)
				}
				return MutexLock(m)
			},
			func(c *TCB, r Resume) Next {
				locked = append(locked, i)
				return Sleep(time.Millisecond)
			},
			func(c *TCB, r Resume) Next {
				mutexBehind = append(mutexBehind, m.Waiters())
				return MutexUnlock(m)
			}).Start()
	}
	script(k, "b", 50, 1,
		act(SleepUntil(engine.At(time.Millisecond))),
		func(c *TCB, r Resume) Next {
			if got := cv.Waiters(); got != n {
				t.Errorf("condvar has %d waiters before the broadcast, want %d", got, n)
			}
			return CondBroadcast(cv)
		},
		func(c *TCB, r Resume) Next {
			if got := cv.Waiters(); got != 0 {
				t.Errorf("condvar has %d waiters after the broadcast, want 0", got)
			}
			return Done()
		}).Start()
	k.Run()
	inOrder := []int{0, 1, 2, 3}
	for _, c := range []struct {
		what      string
		got, want []int
	}{
		{"wait order", waited, inOrder},
		{"condvar waiters ahead of each waiter", cvAhead, inOrder},
		{"wake order", woke, inOrder},
		{"lock order", locked, inOrder},
		{"mutex waiters behind each holder", mutexBehind, []int{3, 2, 1, 0}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s = %v, want %v", c.what, c.got, c.want)
		}
	}
	if m.Locked() || m.Waiters() != 0 {
		t.Fatal("mutex should be free at the end")
	}
}

func TestTimerTerminatesInterruptibleCompute(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var completed bool
	var ran time.Duration
	th := script(k, "t", 50, 0,
		act(TimerSet(engine.At(5*time.Millisecond))),
		act(ComputeInterruptible(time.Second)),
		func(c *TCB, r Resume) Next {
			completed, ran = r.Completed, r.Ran
			return Done()
		})
	th.Start()
	k.Run()
	if completed {
		t.Fatal("burst should have been terminated")
	}
	if ran <= 0 || ran > 6*time.Millisecond {
		t.Fatalf("ran %v, want ~5ms", ran)
	}
}

func TestTimerDoesNotTerminateUninterruptibleCompute(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var end engine.Time
	th := script(k, "t", 50, 0,
		act(TimerSet(engine.At(time.Millisecond))),
		act(Compute(10*time.Millisecond)),
		func(c *TCB, r Resume) Next {
			end = c.Now()
			return Done()
		})
	th.Start()
	k.Run()
	if end < engine.At(10*time.Millisecond) {
		t.Fatalf("uninterruptible burst cut short at %v", end)
	}
	if !th.pendingAlarm {
		t.Fatal("alarm should be pending after an uninterruptible burst")
	}
}

func TestTimerStopCancelsAndClearsPending(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var completed bool
	th := script(k, "t", 50, 0,
		act(TimerSet(engine.At(time.Hour))),
		act(TimerStop()),
		act(ComputeInterruptible(5*time.Millisecond)),
		func(c *TCB, r Resume) Next {
			completed = r.Completed
			return Done()
		})
	th.Start()
	k.Run()
	if !completed {
		t.Fatal("burst should complete after TimerStop")
	}
}

// The POSIX handler-entry semantics: after a SIGALRM termination the signal
// stays masked, and a second timer cannot terminate the next burst until the
// mask is cleared. This is the mechanism behind Table I's try/catch row.
func TestAlarmMaskedAfterTermination(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var second bool
	th := script(k, "t", 50, 0,
		act(TimerSet(engine.At(2*time.Millisecond))),
		act(ComputeInterruptible(time.Second)),
		func(c *TCB, r Resume) Next {
			if r.Completed {
				t.Error("first burst should be terminated")
			}
			if !c.AlarmMasked() {
				t.Error("SIGALRM should be masked after handler entry")
			}
			// Arm again WITHOUT restoring the mask: the next burst must run
			// to completion because the signal stays blocked.
			return TimerSet(c.Now().Add(2 * time.Millisecond))
		},
		act(ComputeInterruptible(10*time.Millisecond)),
		func(c *TCB, r Resume) Next {
			second = r.Completed
			return Done()
		})
	th.Start()
	k.Run()
	if !second {
		t.Fatal("second burst should complete: SIGALRM was still masked")
	}
}

// Restoring the mask (as siglongjmp does) re-enables termination.
func TestAlarmUnmaskedTerminatesAgain(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	second := true
	th := script(k, "t", 50, 0,
		act(TimerSet(engine.At(2*time.Millisecond))),
		act(ComputeInterruptible(time.Second)),
		act(SetAlarmMask(false)), // siglongjmp restores the mask
		func(c *TCB, r Resume) Next { return TimerSet(c.Now().Add(2 * time.Millisecond)) },
		act(ComputeInterruptible(10*time.Second)),
		func(c *TCB, r Resume) Next {
			second = r.Completed
			return Done()
		})
	th.Start()
	k.Run()
	if second {
		t.Fatal("second burst should have been terminated after unmasking")
	}
}

// A pending alarm that arrives while masked is delivered as soon as an
// interruptible burst starts with the mask cleared.
func TestPendingAlarmDeliveredOnNextBurst(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	completed := true
	ran := time.Duration(-1)
	th := script(k, "t", 50, 0,
		act(SetAlarmMask(true)),
		act(TimerSet(engine.At(time.Millisecond))),
		act(Compute(5*time.Millisecond)), // alarm fires during this, stays pending
		act(SetAlarmMask(false)),
		act(ComputeInterruptible(time.Second)),
		func(c *TCB, r Resume) Next {
			completed, ran = r.Completed, r.Ran
			return Done()
		})
	th.Start()
	k.Run()
	if completed {
		t.Fatal("pending alarm should terminate the burst immediately")
	}
	if ran != 0 {
		t.Fatalf("burst ran %v, want 0 (terminated at entry)", ran)
	}
}

// Preemption must preserve a terminated burst's consumed-time accounting.
func TestPreemptedInterruptibleBurstAccounting(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var ran time.Duration
	lo := script(k, "lo", 50, 0,
		act(TimerSet(engine.At(20*time.Millisecond))),
		act(ComputeInterruptible(time.Second)),
		func(c *TCB, r Resume) Next {
			ran = r.Ran
			return Done()
		})
	hi := script(k, "hi", 60, 0,
		act(SleepUntil(engine.At(5*time.Millisecond))),
		act(Compute(5*time.Millisecond)))
	lo.Start()
	hi.Start()
	k.Run()
	// lo computed ~5ms before preemption, resumed ~10ms, terminated at
	// ~20ms: it consumed roughly 15ms of CPU, never 20.
	if ran < 12*time.Millisecond || ran > 18*time.Millisecond {
		t.Fatalf("terminated burst consumed %v, want ~15ms", ran)
	}
}

func TestTracerSeesLifecycle(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	tr := trace.New(trace.Config{CPUs: 1})
	k.SetTrace(tr)
	var kinds []trace.Kind
	tr.Tap(func(rec trace.Record) { kinds = append(kinds, rec.Kind) })
	th := script(k, "t", 50, 0, act(Compute(time.Millisecond)))
	th.Start()
	k.Run()
	want := []trace.Kind{trace.KindReady, trace.KindDispatch, trace.KindExit}
	if len(kinds) != len(want) {
		t.Fatalf("trace %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("trace %v, want %v", kinds, want)
		}
	}
	if got := tr.Emitted(); got != uint64(len(want)) {
		t.Fatalf("Emitted() = %d, want %d", got, len(want))
	}
}

// Shutdown force-exits a thread parked in a wait nobody signals; its body
// is never stepped again.
func TestShutdownUnwindsBlockedThreads(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	cv := k.NewCondVar("never")
	stepped := false
	th := script(k, "t", 50, 0,
		act(CondWait(cv)),
		func(c *TCB, r Resume) Next {
			stepped = true
			return Done()
		})
	th.Start()
	k.Run() // Run calls Shutdown when the event queue drains
	if th.State() != StateExited {
		t.Fatalf("state %v, want exited after shutdown", th.State())
	}
	if stepped {
		t.Fatal("body stepped past a wait nobody signalled")
	}
}

// Shutdown is final: a second run must not fire the events the killed
// threads left armed — here a compute completion, which would re-enter an
// exited thread's body.
func TestRunAfterShutdownPanics(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	steps := 0
	th := k.MustNewBodyThread(ThreadConfig{Name: "t", Priority: 50, CPU: 0},
		StepFunc(func(c *TCB, r Resume) Next {
			steps++
			return Compute(10 * time.Millisecond)
		}))
	th.Start()
	k.RunUntil(engine.At(5 * time.Millisecond))
	if steps != 1 {
		t.Fatalf("body stepped %d times before the first cut, want 1", steps)
	}
	defer func() {
		if r := recover(); r != "kernel: Run after Shutdown" {
			t.Fatalf("second RunUntil: recovered %v, want the Run-after-Shutdown panic", r)
		}
		if steps != 1 {
			t.Fatalf("body stepped %d times, want 1: Step re-entered after Shutdown", steps)
		}
	}()
	k.RunUntil(engine.At(100 * time.Millisecond))
}

func TestDeterministicSchedule(t *testing.T) {
	run := func() engine.Time {
		k := testKernel(t, machine.CPUMemoryLoad)
		cv := k.NewCondVar("cv")
		for i := 0; i < 4; i++ {
			prio := 40 + i
			script(k, "w", prio, machine.HWThread(i%8),
				act(Compute(time.Duration(prio)*time.Millisecond)),
				act(CondSignal(cv))).Start()
		}
		script(k, "m", 60, 0,
			act(CondWait(cv)), act(CondWait(cv)), act(CondWait(cv)), act(CondWait(cv))).Start()
		k.Run()
		return k.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic schedule: %v vs %v", a, b)
	}
}

func TestChargeOpConsumesTime(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var before, after engine.Time
	th := script(k, "t", 50, 0,
		func(c *TCB, r Resume) Next {
			before = c.Now()
			return ChargeOp(machine.OpSigLongjmp)
		},
		func(c *TCB, r Resume) Next {
			after = c.Now()
			return Done()
		})
	th.Start()
	k.Run()
	if after <= before {
		t.Fatal("ChargeOp should consume virtual time")
	}
}
