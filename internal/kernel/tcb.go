package kernel

import (
	"rtseed/internal/engine"
	"rtseed/internal/machine"
)

// TCB is a body's read-only view of its own thread, handed to every Step.
// It is valid only for the duration of that Step call.
type TCB struct {
	t *Thread
}

// Thread returns the thread the TCB belongs to.
func (c *TCB) Thread() *Thread { return c.t }

// Now returns the current virtual time. It is also the thread's rdtscp
// analogue: per-hardware-thread timestamp counters read the same virtual
// clock.
func (c *TCB) Now() engine.Time { return c.t.k.eng.Now() }

// HWThread returns the hardware thread the caller is pinned to.
func (c *TCB) HWThread() machine.HWThread { return c.t.cpuID }

// AlarmMasked reports whether SIGALRM is currently blocked.
func (c *TCB) AlarmMasked() bool { return c.t.alarmMasked }

// AlarmPending reports whether a SIGALRM is pending, undelivered.
func (c *TCB) AlarmPending() bool { return c.t.pendingAlarm }
