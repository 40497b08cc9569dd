// Fixture for the waiverdrift analyzer: waivers that still shield a live
// finding are accepted, waivers whose violation is gone are stale, and
// directives attached to the wrong kind of code are misplaced.
package fixture

import (
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/kernel"
)

type phase int

const (
	phaseA phase = iota
	phaseB
	phaseC
)

// --- live waivers: accepted --------------------------------------------

// liveAlloc's waiver still shields a real allocation.
//
//rtseed:noalloc
func liveAlloc(n int) []int {
	//rtseed:alloc-ok fixture keeps this deliberate allocation
	buf := make([]int, n)
	return buf
}

// liveNondet's waiver still shields a real finding — the wall-clock value
// reaches the return, so the detflow tier keeps it live.
func liveNondet() int64 {
	//rtseed:nondeterministic-ok fixture keeps this wall-clock read
	return time.Now().UnixNano()
}

// liveUnits's waiver still shields a real abs+abs addition.
//
//rtseed:units-ok fixture keeps this deliberate unit mix
func liveUnits(a, b engine.Time) engine.Time {
	return a + b
}

// liveRetainer's waiver still shields a real TCB retention.
type liveRetainer struct{ c *kernel.TCB }

func (b *liveRetainer) Step(c *kernel.TCB, r kernel.Resume) kernel.Next {
	b.c = c //rtseed:bodystep-ok fixture keeps this deliberate retention
	return kernel.Done()
}

// livePartial's switch is still deliberately partial.
func livePartial(p phase) bool {
	//rtseed:partial-ok only phaseA matters to this helper
	switch p {
	case phaseA:
		return true
	}
	return false
}

// checked still persists live handles into its annotated field.
type checked struct {
	ev engine.Event //rtseed:handle-ok re-validated via Scheduled before every use
}

func storeChecked(c *checked, e *engine.Engine) {
	c.ev = e.After(time.Millisecond, 0, func() {})
}

// doubly's blessing and the store's own waiver both shield the store: each
// is consulted, so neither is stale.
type doubly struct {
	ev engine.Event //rtseed:handle-ok re-validated via Scheduled before every use
}

func storeDoubly(d *doubly, e *engine.Engine) {
	d.ev = e.After(time.Millisecond, 0, func() {}) //rtseed:handle-ok fixture: a line waiver beside a blessed field
}

// enqueue is kernel context; livePump still reaches it, so its blessing
// stays live.
//
//rtseed:kernelctx
func enqueue() {}

//rtseed:kernelctx-entry fixture pump, still transitioning into kernel context
func livePump() { enqueue() }

// --- stale waivers: flagged --------------------------------------------

// staleAlloc: the waived line no longer allocates.
//
//rtseed:noalloc
func staleAlloc(buf []int) int {
	//rtseed:alloc-ok the line below used to allocate // want `stale //rtseed:alloc-ok: the noalloc finding it waives no longer exists`
	return len(buf)
}

// staleNondet: nothing below touches the clock any more.
func staleNondet() int {
	//rtseed:nondeterministic-ok formerly read time.Now here // want `stale //rtseed:nondeterministic-ok: the detflow finding it waives no longer exists`
	return 42
}

// staleUnits: the arithmetic became a sanctioned helper call.
func staleUnits(a engine.Time, d time.Duration) engine.Time {
	//rtseed:units-ok formerly mixed units here // want `stale //rtseed:units-ok: the timeunits finding it waives no longer exists`
	return a.Add(d)
}

// staleBodyStep: the body became protocol-clean but kept its waiver.
func staleBodyStep(c *kernel.TCB, r kernel.Resume) kernel.Next {
	//rtseed:bodystep-ok formerly stored the TCB here // want `stale //rtseed:bodystep-ok: the bodystep finding it waives no longer exists`
	return kernel.Done()
}

// stalePartial: the switch became complete but kept its waiver.
func stalePartial(p phase) int {
	//rtseed:partial-ok outdated justification // want `stale //rtseed:partial-ok: the exhaustive finding it waives no longer exists`
	switch p {
	case phaseA:
		return 0
	case phaseB:
		return 1
	case phaseC:
		return 2
	}
	return -1
}

// stale handle-ok: the annotated field stopped holding engine.Event.
type retired struct {
	n int //rtseed:handle-ok obsolete discipline note // want `stale //rtseed:handle-ok: the eventhandle finding it waives no longer exists`
}

// stalePump's blessing leads nowhere: it no longer calls kernel code.
//
//rtseed:kernelctx-entry formerly the fixture pump // want `stale //rtseed:kernelctx-entry: stalePump no longer reaches any //rtseed:kernelctx function`
func stalePump() { plainHelper() }

func plainHelper() {}

// --- misplaced directives: flagged -------------------------------------

// noalloc on a variable declaration annotates nothing.
//
//rtseed:noalloc // want `misplaced //rtseed:noalloc: not attached to a function declaration`
var floating int

func misplacedCtx() int {
	//rtseed:kernelctx // want `misplaced //rtseed:kernelctx: not attached to a function declaration or literal`
	x := floating
	return x
}

//rtseed:kernelctx-entry blessing a type makes no sense // want `misplaced //rtseed:kernelctx-entry: not attached to a function declaration`
type notAFunc struct{}

var _ = retired{}
var _ = notAFunc{}
