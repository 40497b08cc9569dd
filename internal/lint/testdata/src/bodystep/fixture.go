// Package bodystepfix is the continuation-protocol analyzer's fixture: each
// flagged line carries a want expectation; the clean and waived functions
// document the accepted patterns. The fixture implements real kernel.Body
// continuations against the real kernel types — the analyzer matches on
// them, not on names.
package bodystepfix

import (
	"time"

	"rtseed/internal/kernel"
)

// Accepted: a well-formed periodic body — program-counter state machine,
// read-only TCB calls, derived values stored in fields, one constructed
// action per path.
type goodBody struct {
	pc    int
	jobs  int
	start time.Duration
}

func (b *goodBody) Step(c *kernel.TCB, r kernel.Resume) kernel.Next {
	switch b.pc {
	case 0:
		b.start = c.Now().Duration()
		b.pc = 1
		return kernel.Compute(time.Millisecond)
	case 1:
		b.jobs++
		b.pc = 0
		if b.jobs >= 3 {
			return kernel.Done()
		}
		return kernel.Sleep(time.Millisecond)
	}
	return kernel.Done()
}

// Flagged pattern 1: retaining the step's TCB in a field.
type retainBody struct {
	c  *kernel.TCB
	pc int
}

func (b *retainBody) Step(c *kernel.TCB, r kernel.Resume) kernel.Next {
	b.c = c // want `step's \*kernel\.TCB is stored in b\.c, which outlives the step`
	return kernel.Done()
}

// Flagged pattern 1b: retaining the Resume in a package variable, via the
// StepFunc form.
var lastResume kernel.Resume

func stashResume(c *kernel.TCB, r kernel.Resume) kernel.Next {
	lastResume = r // want `step's kernel\.Resume is stored in lastResume`
	return kernel.Done()
}

var _ kernel.Body = kernel.StepFunc(stashResume)

// Flagged pattern 1c: laundering the TCB through a local struct. The local
// store is fine; publishing the struct is the retention.
type holder struct{ c *kernel.TCB }

type launderBody struct{ h holder }

func (b *launderBody) Step(c *kernel.TCB, r kernel.Resume) kernel.Next {
	var tmp holder
	tmp.c = c // a local store stays within the step
	b.h = tmp // want `step's \*kernel\.TCB is stored in b\.h, which outlives the step`
	return kernel.Done()
}

// Flagged pattern 1d: a closure capturing the TCB escaping on a goroutine.
func goroutineLeak(c *kernel.TCB, r kernel.Resume) kernel.Next {
	go func() { // want `closure capturing the step's \*kernel\.TCB is handed to a new goroutine`
		_ = c.Now()
	}()
	return kernel.Done()
}

// Flagged pattern 1e: the TCB sent on a channel.
func channelLeak(ch chan<- *kernel.TCB) kernel.StepFunc {
	return func(c *kernel.TCB, r kernel.Resume) kernel.Next {
		ch <- c // want `step's \*kernel\.TCB is sent on a channel`
		return kernel.Done()
	}
}

// Flagged pattern 2: a path returning the zero kernel.Next.
func zeroPath(c *kernel.TCB, r kernel.Resume) kernel.Next {
	if r.First {
		return kernel.Compute(time.Millisecond)
	}
	return kernel.Next{} // want `may return the zero kernel\.Next`
}

// Flagged pattern 2b: the zero Next laundered through a variable that is
// only assigned on one branch.
func zeroVar(c *kernel.TCB, r kernel.Resume) kernel.Next {
	var n kernel.Next
	if r.First {
		n = kernel.Done()
	}
	return n // want `may return the zero kernel\.Next`
}

// Accepted: the (kernel.Next, bool) StepOptional protocol — done=true
// legitimizes the unexecuted zero Next, so multi-result functions are
// exempt from the exactly-one-action rule.
func stepOptionalStyle(c *kernel.TCB, r kernel.Resume, pc *int) (kernel.Next, bool) {
	if *pc == 0 {
		*pc = 1
		return kernel.Compute(time.Millisecond), false
	}
	return kernel.Next{}, true
}

// Accepted: a variable assigned a constructed action on every path.
func rebuiltVar(c *kernel.TCB, r kernel.Resume) kernel.Next {
	n := kernel.Next{}
	if r.First {
		n = kernel.Compute(time.Millisecond)
	} else {
		n = kernel.Done()
	}
	return n
}

// Accepted escape hatch: a line-scoped waiver with a reason.
type waivedBody struct{ c *kernel.TCB }

func (b *waivedBody) Step(c *kernel.TCB, r kernel.Resume) kernel.Next {
	b.c = c //rtseed:bodystep-ok fixture: diagnostic hook retains the TCB deliberately
	return kernel.Done()
}

// Accepted escape hatch: a function-scoped waiver in the doc comment.
//
//rtseed:bodystep-ok fixture: prototype body returns no action during bring-up
func waivedFunc(c *kernel.TCB, r kernel.Resume) kernel.Next {
	return kernel.Next{}
}
