package kernel

import (
	"testing"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/machine"
)

// inversionScenario is the classic three-thread priority inversion: a
// low-priority thread takes the lock, a high-priority thread blocks on it,
// and a medium-priority CPU hog on the same processor preempts the
// low-priority holder. Without priority inheritance the hog runs for its
// full burst before the holder can release; with it, the holder is boosted
// above the hog and the high-priority thread's blocking stays bounded by
// the critical section.
func inversionScenario(t *testing.T, pi bool) (hiDone engine.Time) {
	t.Helper()
	k := testKernel(t, machine.NoLoad)
	var m *Mutex
	if pi {
		m = k.NewPIMutex("m")
	} else {
		m = k.NewMutex("m")
	}
	lo := script(k, "lo", 40, 0,
		act(MutexLock(m)),
		act(Compute(5*time.Millisecond)), // critical section
		act(MutexUnlock(m)))
	mid := script(k, "mid", 50, 0,
		act(SleepUntil(engine.At(2*time.Millisecond))),
		act(Compute(100*time.Millisecond))) // the hog
	hi := script(k, "hi", 60, 0,
		act(SleepUntil(engine.At(1*time.Millisecond))),
		act(MutexLock(m)),
		act(MutexUnlock(m)),
		func(c *TCB, r Resume) Next {
			hiDone = c.Now()
			return Done()
		})
	lo.Start()
	mid.Start()
	hi.Start()
	k.Run()
	return hiDone
}

func TestPriorityInversionWithoutPI(t *testing.T) {
	done := inversionScenario(t, false)
	// hi cannot finish before the 100ms hog releases the CPU for lo.
	if done < engine.At(100*time.Millisecond) {
		t.Fatalf("hi finished at %v; expected unbounded inversion behind the hog", done)
	}
}

func TestPriorityInheritanceBoundsInversion(t *testing.T) {
	done := inversionScenario(t, true)
	// hi's blocking is bounded by lo's ~5ms critical section.
	if done > engine.At(10*time.Millisecond) {
		t.Fatalf("hi finished at %v; priority inheritance should bound blocking to the critical section", done)
	}
}

// The boosted owner returns to its base priority after unlock.
func TestPIBoostIsTemporary(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	m := k.NewPIMutex("m")
	var prioDuring, prioAfter int
	lo := script(k, "lo", 40, 0,
		act(MutexLock(m)),
		act(Compute(5*time.Millisecond)),
		func(c *TCB, r Resume) Next {
			prioDuring = c.Thread().Priority()
			return MutexUnlock(m)
		},
		func(c *TCB, r Resume) Next {
			prioAfter = c.Thread().Priority()
			return Done()
		})
	hi := script(k, "hi", 70, 1,
		act(SleepUntil(engine.At(time.Millisecond))),
		act(MutexLock(m)),
		act(MutexUnlock(m)))
	lo.Start()
	hi.Start()
	k.Run()
	if prioDuring != 70 {
		t.Fatalf("owner priority during contention %d, want boosted 70", prioDuring)
	}
	if prioAfter != 40 {
		t.Fatalf("owner priority after unlock %d, want base 40", prioAfter)
	}
}

// A plain mutex never boosts.
func TestPlainMutexNoBoost(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	m := k.NewMutex("m")
	var prioDuring int
	lo := script(k, "lo", 40, 0,
		act(MutexLock(m)),
		act(Compute(5*time.Millisecond)),
		func(c *TCB, r Resume) Next {
			prioDuring = c.Thread().Priority()
			return MutexUnlock(m)
		})
	hi := script(k, "hi", 70, 1,
		act(SleepUntil(engine.At(time.Millisecond))),
		act(MutexLock(m)),
		act(MutexUnlock(m)))
	lo.Start()
	hi.Start()
	k.Run()
	if prioDuring != 40 {
		t.Fatalf("plain mutex boosted the owner to %d", prioDuring)
	}
}
