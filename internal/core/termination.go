package core

import (
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
)

// Termination is a mechanism for ending a parallel optional part at its
// optional deadline in the user space (paper §IV-D, Fig. 7, Table I). A
// mechanism runs one optional part of up to TermState.Length execution
// time, with the optional deadline at absolute time TermState.OD, and
// reports whether the part completed along with the CPU time it consumed.
type Termination interface {
	// Name returns the mechanism's label as used in Table I.
	Name() string
	// AnyTime reports whether the mechanism can terminate the optional part
	// at any instant (Table I column "Any Time Termination").
	AnyTime() bool
	// RestoresSignalMask reports whether the mechanism restores the signal
	// mask after a termination, so the next job's optional-deadline timer
	// can fire (Table I column "Signal Mask Restoration").
	RestoresSignalMask() bool
	// StepOptional runs the part on the calling thread, one kernel action
	// per call. The caller Resets st before the first call, then calls
	// StepOptional once per kernel resume, executing each returned action,
	// until done is reported; st.Completed and st.Ran then hold whether
	// the part completed and the CPU time it consumed (the returned Next
	// is the zero value and must not be executed).
	StepOptional(st *TermState, c *kernel.TCB, r kernel.Resume) (next kernel.Next, done bool)
}

// TermState is the resumable state of one optional part run under a
// termination mechanism. It lives in the optional thread's body (one per
// thread, reused across jobs), so steady-state stepping allocates nothing.
type TermState struct {
	// OD is the absolute optional deadline for this run.
	OD engine.Time
	// Length is the part's nominal execution time.
	Length time.Duration
	// Completed and Ran are the run's results, valid once StepOptional
	// reports done.
	Completed bool
	Ran       time.Duration

	pc    uint8
	chunk time.Duration // periodic check: in-flight chunk size
}

// Reset prepares st for a new optional part run.
func (st *TermState) Reset(od engine.Time, length time.Duration) {
	*st = TermState{OD: od, Length: length}
}

// SigjmpTermination is the paper's chosen mechanism: sigsetjmp saves the
// stack context and signal mask, a one-shot optional-deadline timer raises
// SIGALRM, and the handler siglongjmps back — restoring both the stack
// context and the signal mask. It terminates at any time and keeps the
// timer working for subsequent jobs.
type SigjmpTermination struct{}

// Name implements Termination.
func (SigjmpTermination) Name() string { return "sigsetjmp/siglongjmp" }

// AnyTime implements Termination.
func (SigjmpTermination) AnyTime() bool { return true }

// RestoresSignalMask implements Termination.
func (SigjmpTermination) RestoresSignalMask() bool { return true }

// StepOptional implements Termination, following Fig. 7: save context, arm
// the one-shot timer, execute; on completion disarm the timer, on SIGALRM
// pay the siglongjmp restore and clear the handler's signal mask.
//
//rtseed:noalloc
//rtseed:kernelctx
func (SigjmpTermination) StepOptional(st *TermState, c *kernel.TCB, r kernel.Resume) (kernel.Next, bool) {
	switch st.pc {
	case 0:
		st.pc = 1
		return kernel.ChargeOp(machine.OpSigSetjmp), false
	case 1:
		st.pc = 2
		return kernel.TimerSet(st.OD), false
	case 2:
		st.pc = 3
		return kernel.ComputeInterruptible(st.Length), false
	case 3:
		st.Completed, st.Ran = r.Completed, r.Ran
		if st.Completed {
			st.pc = 5
			return kernel.TimerStop(), false
		}
		// timer_handler ran siglongjmp: restore stack context AND signal
		// mask.
		st.pc = 4
		return kernel.ChargeOp(machine.OpSigLongjmp), false
	case 4:
		st.pc = 5
		return kernel.SetAlarmMask(false), false
	}
	return kernel.Next{}, true
}

// PeriodicCheckTermination polls the clock between fixed-size compute chunks
// and stops once the optional deadline has passed — no timer, no signals.
// It cannot terminate at any time: the part overruns its optional deadline
// by up to one check period, which "degrades the improvement of QoS"
// (paper §IV-D). In exchange it is safe for optional parts that must
// not be cut inside a critical section.
type PeriodicCheckTermination struct {
	// Period is the polling granularity. Zero defaults to 1ms.
	Period time.Duration
}

// Name implements Termination.
func (PeriodicCheckTermination) Name() string { return "Periodic Check" }

// AnyTime implements Termination.
func (PeriodicCheckTermination) AnyTime() bool { return false }

// RestoresSignalMask implements Termination. The mechanism uses no signals,
// so restoration is unnecessary (Table I).
func (PeriodicCheckTermination) RestoresSignalMask() bool { return true }

// StepOptional implements Termination: the chunked polling loop as a
// resumable state machine. st.Ran accumulates across chunks; the loop-head
// checks (part done, optional deadline passed) run in host code between
// compute actions.
//
//rtseed:noalloc
//rtseed:kernelctx
func (p PeriodicCheckTermination) StepOptional(st *TermState, c *kernel.TCB, r kernel.Resume) (kernel.Next, bool) {
	if st.pc == 1 {
		st.Ran += st.chunk
	}
	if st.Ran >= st.Length {
		st.Completed = true
		return kernel.Next{}, true
	}
	if c.Now() >= st.OD {
		st.Completed = false
		return kernel.Next{}, true
	}
	period := p.Period
	if period <= 0 {
		period = time.Millisecond
	}
	chunk := period
	if rest := st.Length - st.Ran; rest < chunk {
		chunk = rest
	}
	st.chunk = chunk
	st.pc = 1
	return kernel.Compute(chunk), false
}

// TryCatchTermination models the C++ try/catch alternative of §IV-D: the
// SIGALRM handler throws, the exception unwinds the optional part at any
// time — but the signal mask saved at handler entry is never restored, so
// "the timer interrupt of the next job does not occur because the signal
// mask is not cleared". After the first termination every subsequent job's
// optional part runs to completion regardless of its optional deadline,
// jeopardizing the wind-up part.
type TryCatchTermination struct{}

// Name implements Termination.
func (TryCatchTermination) Name() string { return "try-catch" }

// AnyTime implements Termination.
func (TryCatchTermination) AnyTime() bool { return true }

// RestoresSignalMask implements Termination.
func (TryCatchTermination) RestoresSignalMask() bool { return false }

// StepOptional implements Termination: try/catch as a resumable state
// machine. It never issues SetAlarmMask — a terminated part leaves SIGALRM
// blocked, which is the defect §IV-D describes.
//
//rtseed:noalloc
//rtseed:kernelctx
func (TryCatchTermination) StepOptional(st *TermState, c *kernel.TCB, r kernel.Resume) (kernel.Next, bool) {
	switch st.pc {
	case 0:
		st.pc = 1
		return kernel.TimerSet(st.OD), false
	case 1:
		st.pc = 2
		return kernel.ComputeInterruptible(st.Length), false
	case 2:
		st.Completed, st.Ran = r.Completed, r.Ran
		if st.Completed {
			st.pc = 3
			return kernel.TimerStop(), false
		}
		// The exception unwinds the stack (priced like the longjmp
		// restore), but the signal mask is NOT cleared: SIGALRM stays
		// blocked.
		st.pc = 3
		return kernel.ChargeOp(machine.OpSigLongjmp), false
	}
	return kernel.Next{}, true
}

var (
	_ Termination = SigjmpTermination{}
	_ Termination = PeriodicCheckTermination{}
	_ Termination = TryCatchTermination{}
)
