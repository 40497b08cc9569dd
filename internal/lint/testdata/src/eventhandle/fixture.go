// Package evfix is the eventhandle analyzer's fixture, exercising the
// handle-holding and use-after-cancel rules against the real engine types.
package evfix

import (
	"time"

	"rtseed/internal/engine"
)

// holder persists handles without declaring a checking discipline.
type holder struct {
	ev engine.Event
}

// checked persists handles legitimately: the declaration is annotated.
type checked struct {
	ev engine.Event //rtseed:handle-ok re-validated via Scheduled before every use
}

// Flagged pattern 1: a package-level handle.
var stray engine.Event // want `package-level engine\.Event`

// Flagged pattern 2: storing a live handle into an unannotated field.
func storeField(h *holder, e *engine.Engine) {
	h.ev = e.After(time.Millisecond, 0, noop) // want `stored into struct field`
}

// Flagged pattern 3: the same store via a composite literal.
func storeComposite(e *engine.Engine) holder {
	return holder{ev: e.After(time.Millisecond, 0, noop)} // want `composite literal`
}

// Flagged pattern 4: touching a handle after cancelling it.
func useAfterCancel(e *engine.Engine) engine.Time {
	ev := e.After(time.Second, 0, noop)
	e.Cancel(ev)
	return ev.When() // want `used after Cancel`
}

// Clean: storing into an annotated field is the sanctioned pattern.
func storeChecked(c *checked, e *engine.Engine) {
	c.ev = e.After(time.Millisecond, 0, noop)
}

// Clean: zeroing a field drops the handle, it doesn't hold one.
func clearField(h *holder) {
	h.ev = engine.Event{}
}

// Clean: a Scheduled re-check gates the use.
func recheckAfterCancel(e *engine.Engine) engine.Time {
	ev := e.After(time.Second, 0, noop)
	e.Cancel(ev)
	if ev.Scheduled() {
		return ev.When()
	}
	return 0
}

// Clean: reassignment replaces the cancelled handle.
func reassignAfterCancel(e *engine.Engine) engine.Time {
	ev := e.After(time.Second, 0, noop)
	e.Cancel(ev)
	ev = e.After(2*time.Second, 0, noop)
	return ev.When()
}

// Flagged: the Cancel happens on one path only, and that path reaches the
// use.
func cancelOnOneBranch(e *engine.Engine, stop bool) engine.Time {
	ev := e.After(time.Second, 0, noop)
	if stop {
		e.Cancel(ev)
	}
	return ev.When() // want `"ev" used after Cancel`
}

// Clean: the cancelling branch returns, so no path from the Cancel reaches
// the use after the if.
func cancelOnReturningBranch(e *engine.Engine, stop bool) engine.Time {
	ev := e.After(time.Second, 0, noop)
	if stop {
		e.Cancel(ev)
		return 0
	}
	return ev.When()
}

// Flagged: the Cancel at the bottom of the loop reaches the use at its top
// on the next iteration.
func cancelAtLoopBottom(e *engine.Engine, n int) engine.Time {
	ev := e.After(time.Second, 0, noop)
	var last engine.Time
	for i := 0; i < n; i++ {
		last = ev.When() // want `"ev" used after Cancel`
		e.Cancel(ev)
	}
	return last
}

// Clean: the handle is re-armed before the loop comes back around.
func rearmInLoop(e *engine.Engine, n int) engine.Time {
	ev := e.After(time.Second, 0, noop)
	var last engine.Time
	for i := 0; i < n; i++ {
		last = ev.When()
		e.Cancel(ev)
		ev = e.After(time.Second, 0, noop)
	}
	return last
}

// Accepted escape hatch: a use-site waiver with a reason.
func waivedUse(e *engine.Engine) bool {
	ev := e.After(time.Second, 0, noop)
	e.Cancel(ev)
	return ev == (engine.Event{}) //rtseed:handle-ok comparing against zero is position-independent
}

func noop() {}
