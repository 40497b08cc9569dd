package kernel

import (
	"testing"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/machine"
)

func TestMutexExcludesAndServesFIFO(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	m := k.NewMutex("m")
	var order []string
	var inside int
	worker := func(name string, cpu machine.HWThread, start time.Duration) {
		script(k, name, 50, cpu,
			act(SleepUntil(engine.At(start))),
			act(MutexLock(m)),
			func(c *TCB, r Resume) Next {
				inside++
				if inside != 1 {
					t.Errorf("%s: mutual exclusion violated", name)
				}
				return Compute(10 * time.Millisecond)
			},
			func(c *TCB, r Resume) Next {
				order = append(order, name)
				inside--
				return MutexUnlock(m)
			}).Start()
	}
	// a grabs the lock first; b and c queue in arrival order.
	worker("a", 0, 0)
	worker("b", 1, time.Millisecond)
	worker("c", 2, 2*time.Millisecond)
	k.Run()
	want := []string{"a", "b", "c"}
	if len(order) != 3 {
		t.Fatalf("order %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("FIFO order %v, want %v", order, want)
		}
	}
	if m.Locked() || m.Waiters() != 0 {
		t.Fatal("mutex should be free at the end")
	}
}

// np contenders serialize: total time is np x critical-section length.
func TestMutexSerializesWork(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	m := k.NewMutex("m")
	const np = 6
	const section = 10 * time.Millisecond
	var last engine.Time
	for i := 0; i < np; i++ {
		script(k, "w", 50, machine.HWThread(i%8),
			act(MutexLock(m)),
			act(Compute(section)),
			act(MutexUnlock(m)),
			func(c *TCB, r Resume) Next {
				if c.Now() > last {
					last = c.Now()
				}
				return Done()
			}).Start()
	}
	k.Run()
	if last < engine.At(np*section) {
		t.Fatalf("finished at %v: critical sections overlapped", last)
	}
	if last > engine.At(np*section+5*time.Millisecond) {
		t.Fatalf("finished at %v: serialization overhead implausible", last)
	}
}

func TestMutexUnlockByNonOwnerPanics(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	m := k.NewMutex("m")
	owner := script(k, "owner", 50, 0, act(MutexLock(m)), act(Sleep(time.Hour)))
	thief := script(k, "thief", 50, 1, act(Sleep(time.Millisecond)), act(MutexUnlock(m)))
	owner.Start()
	thief.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("unlock by non-owner should panic")
		}
	}()
	k.Run()
}

func TestMutexRecursiveLockPanics(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	m := k.NewMutex("m")
	th := script(k, "t", 50, 0, act(MutexLock(m)), act(MutexLock(m)))
	th.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("recursive lock should panic")
		}
	}()
	k.Run()
}

func TestMutexName(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	if k.NewMutex("end").Name() != "end" {
		t.Fatal("name lost")
	}
}

func TestCPUTimeAccounting(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	lo := script(k, "lo", 50, 0, act(Compute(20*time.Millisecond)))
	hi := script(k, "hi", 60, 0,
		act(SleepUntil(engine.At(5*time.Millisecond))),
		act(Compute(10*time.Millisecond)))
	lo.Start()
	hi.Start()
	k.Run()
	// Each thread's CPU time equals its requested compute, despite the
	// preemption in the middle of lo's burst.
	if got := lo.CPUTime(); got != 20*time.Millisecond {
		t.Fatalf("lo CPU time %v, want 20ms", got)
	}
	if got := hi.CPUTime(); got != 10*time.Millisecond {
		t.Fatalf("hi CPU time %v, want 10ms", got)
	}
	// CPU 0 utilization over the run is dominated by the 30ms of compute
	// plus switch/dispatch services.
	u := k.Utilization(0, engine.At(0))
	if u < 0.9 || u > 1.0 {
		t.Fatalf("cpu0 utilization %v, want ~0.95+", u)
	}
	if k.Utilization(1, engine.At(0)) != 0 {
		t.Fatal("idle cpu should have zero utilization")
	}
	if k.Utilization(0, k.Now()) != 0 {
		t.Fatal("zero span should report zero utilization")
	}
}

func TestInterruptedBurstCPUTime(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	th := script(k, "t", 50, 0,
		act(TimerSet(engine.At(5*time.Millisecond))),
		act(ComputeInterruptible(time.Second)))
	th.Start()
	k.Run()
	got := th.CPUTime()
	if got < 4*time.Millisecond || got > 6*time.Millisecond {
		t.Fatalf("terminated burst CPU time %v, want ~5ms", got)
	}
}

func TestMigrateMovesThread(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var cpuBefore, cpuAfter machine.HWThread
	th := script(k, "m", 50, 0,
		func(c *TCB, r Resume) Next {
			cpuBefore = c.HWThread()
			return Migrate(3)
		},
		func(c *TCB, r Resume) Next {
			cpuAfter = c.HWThread()
			return Compute(time.Millisecond)
		})
	th.Start()
	k.Run()
	if cpuBefore != 0 || cpuAfter != 3 {
		t.Fatalf("migration %d -> %d, want 0 -> 3", cpuBefore, cpuAfter)
	}
	if th.Migrations() != 1 {
		t.Fatalf("migrations %d, want 1", th.Migrations())
	}
	if th.CPU() != 3 {
		t.Fatalf("thread CPU %d, want 3", th.CPU())
	}
}

func TestMigrateToSameCPUIsFree(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var before, after engine.Time
	th := script(k, "m", 50, 2,
		func(c *TCB, r Resume) Next {
			before = c.Now()
			return Migrate(2)
		},
		func(c *TCB, r Resume) Next {
			after = c.Now()
			return Done()
		})
	th.Start()
	k.Run()
	if before != after {
		t.Fatal("same-CPU migration should be a no-op")
	}
	if th.Migrations() != 0 {
		t.Fatal("same-CPU migration must not count")
	}
}

func TestMigrateCostsMoreThanLocalSwitch(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var start engine.Time
	var migrateCost time.Duration
	th := script(k, "m", 50, 0,
		func(c *TCB, r Resume) Next {
			start = c.Now()
			return Migrate(1)
		},
		func(c *TCB, r Resume) Next {
			migrateCost = c.Now().Sub(start)
			return Done()
		})
	th.Start()
	k.Run()
	// Migration = departure service (remote switch) + arrival dispatch;
	// it must exceed a plain local context switch cost.
	local := k.Machine().Cost(machine.OpContextSwitch, 0)
	if migrateCost <= local {
		t.Fatalf("migration cost %v should exceed a local switch %v", migrateCost, local)
	}
}

func TestMigrationFreesOldCPU(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var waiterRan bool
	mover := script(k, "mover", 60, 0, act(Migrate(1)), act(Compute(50*time.Millisecond)))
	waiter := script(k, "waiter", 50, 0,
		act(Compute(time.Millisecond)),
		func(c *TCB, r Resume) Next {
			waiterRan = true
			return Done()
		})
	mover.Start()
	waiter.Start()
	k.Run()
	if !waiterRan {
		t.Fatal("old CPU should run the lower-priority thread after the migration")
	}
}

// sched_yield: the caller moves behind an equal-priority ready thread.
func TestYieldRotatesEqualPriority(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var order []string
	a := script(k, "a", 50, 0,
		act(Compute(time.Millisecond)),
		act(Yield()), // b gets the CPU before a's second burst
		act(Compute(time.Millisecond)),
		func(c *TCB, r Resume) Next {
			order = append(order, "a")
			return Done()
		})
	b := script(k, "b", 50, 0,
		act(Compute(time.Millisecond)),
		func(c *TCB, r Resume) Next {
			order = append(order, "b")
			return Done()
		})
	a.Start()
	b.Start()
	k.Run()
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("order %v, want [b a]", order)
	}
}

// Yield with an empty queue just continues.
func TestYieldAloneContinues(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	done := false
	th := script(k, "t", 50, 0,
		act(Yield()),
		act(Compute(time.Millisecond)),
		func(c *TCB, r Resume) Next {
			done = true
			return Done()
		})
	th.Start()
	k.Run()
	if !done {
		t.Fatal("yield alone should continue")
	}
}
