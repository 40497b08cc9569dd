package kernel

import (
	"runtime"
	"testing"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/machine"
)

// TestBodyTimerTerminatesInterruptibleBurst is the sigjmp-termination shape:
// arm the one-shot timer, start an interruptible burst, and observe the
// termination through Resume.
func TestBodyTimerTerminatesInterruptibleBurst(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var completed bool
	var ran time.Duration
	th := script(k, "t", 50, 0,
		func(c *TCB, r Resume) Next { return TimerSet(c.Now().Add(5 * time.Millisecond)) },
		act(ComputeInterruptible(50*time.Millisecond)),
		func(c *TCB, r Resume) Next {
			completed, ran = r.Completed, r.Ran
			return SetAlarmMask(false)
		})
	th.Start()
	k.Run()
	if completed {
		t.Fatal("burst should have been terminated by the timer")
	}
	if ran <= 0 || ran >= 50*time.Millisecond {
		t.Fatalf("ran %v, want a partial burst", ran)
	}
}

func TestBodyRelativeSleepResolvesAtExecution(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var afterCompute, woke engine.Time
	th := script(k, "t", 50, 0,
		act(Compute(3*time.Millisecond)),
		func(c *TCB, r Resume) Next {
			afterCompute = c.Now()
			return Sleep(7 * time.Millisecond)
		},
		func(c *TCB, r Resume) Next {
			woke = c.Now()
			return Done()
		})
	th.Start()
	k.Run()
	if want := afterCompute.Add(7 * time.Millisecond); woke < want {
		t.Fatalf("woke at %v, want >= %v (sleep must be relative to its execution instant)", woke, want)
	}
}

func TestBodyMigrateMovesThread(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var before, after machine.HWThread
	th := script(k, "t", 50, 0,
		func(c *TCB, r Resume) Next {
			before = c.HWThread()
			return Migrate(3)
		},
		func(c *TCB, r Resume) Next {
			after = c.HWThread()
			return Compute(time.Millisecond)
		})
	th.Start()
	k.Run()
	if before != 0 || after != 3 {
		t.Fatalf("migrate moved %d -> %d, want 0 -> 3", before, after)
	}
	if th.Migrations() != 1 {
		t.Fatalf("migrations %d, want 1", th.Migrations())
	}
}

// TestBodyImmediateActionsTrampoline drives a long chain of actions that
// resolve without suspending the thread — zero-length computes, same-CPU
// migrations, mask toggles, sleeps already in the past. The trampoline in
// resumeThread must flatten the chain instead of recursing, so the run
// completes without growing the stack with the body's program length.
func TestBodyImmediateActionsTrampoline(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	const rounds = 200000
	n := 0
	body := StepFunc(func(c *TCB, r Resume) Next {
		n++
		switch {
		case n > rounds:
			return Done()
		case n%4 == 0:
			return Compute(0)
		case n%4 == 1:
			return Migrate(c.HWThread())
		case n%4 == 2:
			return SetAlarmMask(n%8 == 2)
		default:
			return SleepUntil(engine.At(0))
		}
	})
	th := k.MustNewBodyThread(ThreadConfig{Name: "t", Priority: 50, CPU: 0}, body)
	th.Start()
	k.Run()
	if n <= rounds {
		t.Fatalf("body stepped %d times, want > %d", n, rounds)
	}
}

func TestBodyZeroNextPanics(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	th := k.MustNewBodyThread(ThreadConfig{Name: "t", Priority: 50, CPU: 0},
		StepFunc(func(c *TCB, r Resume) Next { return Next{} }))
	th.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("zero Next must panic")
		}
	}()
	k.Run()
}

func TestNewBodyThreadValidation(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	ok := StepFunc(func(c *TCB, r Resume) Next { return Done() })
	if _, err := k.NewBodyThread(ThreadConfig{Priority: 0, CPU: 0}, ok); err == nil {
		t.Fatal("priority 0 must be rejected")
	}
	if _, err := k.NewBodyThread(ThreadConfig{Priority: 100, CPU: 0}, ok); err == nil {
		t.Fatal("priority 100 must be rejected")
	}
	if _, err := k.NewBodyThread(ThreadConfig{Priority: 50, CPU: 99}, ok); err == nil {
		t.Fatal("out-of-topology CPU must be rejected")
	}
	if _, err := k.NewBodyThread(ThreadConfig{Priority: 50, CPU: 0}, nil); err == nil {
		t.Fatal("nil body must be rejected")
	}
}

// TestNewBodyThreadAllocs pins a thread's creation cost: the Thread, its
// waiter-list node and its three engine callbacks (compute completion,
// timer fire, sleep wake-up). Costed kernel services complete through the
// CPU's one service callback and add nothing per thread, which matters when
// a simulation creates tens of thousands of threads.
func TestNewBodyThreadAllocs(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	body := StepFunc(func(c *TCB, r Resume) Next { return Done() })
	cfg := ThreadConfig{Name: "t", Priority: 50, CPU: 0}
	avg := testing.AllocsPerRun(1_000, func() {
		if _, err := k.NewBodyThread(cfg, body); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 5 {
		t.Fatalf("NewBodyThread allocates %.1f times per thread, want at most 5", avg)
	}
}

// TestShutdownLeavesNoGoroutines is the leak check: a simulation creates no
// goroutine for its threads, running or parked at Shutdown.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	t.Run("continuation", func(t *testing.T) {
		before := runtime.NumGoroutine()
		k := testKernel(t, machine.NoLoad)
		cv := k.NewCondVar("never")
		for i := 0; i < 16; i++ {
			cpu := machine.HWThread(i % 8)
			if i%4 == 0 {
				// Parked forever on a condition variable: unwound only by
				// Shutdown.
				script(k, "t", 50, cpu, act(CondWait(cv))).Start()
				continue
			}
			script(k, "t", 50, cpu, act(Compute(time.Millisecond))).Start()
		}
		k.Run()
		for _, th := range k.Threads() {
			if th.State() != StateExited {
				t.Fatalf("thread %v still %v after shutdown", th, th.State())
			}
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("goroutines leaked: %d before, %d after shutdown", before, after)
		}
	})
}
