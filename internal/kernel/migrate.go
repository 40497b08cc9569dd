package kernel

import (
	"fmt"

	"rtseed/internal/machine"
)

// handleMigrate moves t to req.remote (see Migrate).
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) handleMigrate(t *Thread, req request) {
	target := req.remote
	if !k.mach.Topology().Contains(target) {
		panic(fmt.Sprintf("kernel: migrate to invalid hw thread %d", target))
	}
	// Departure cost on the old CPU: deschedule plus cache-line flush
	// toward the destination core. finishMigrate moves the thread once it
	// has elapsed.
	k.service(t, k.mach.RemoteCost(machine.OpContextSwitch, t.cpuID, target))
}

// finishMigrate re-pins t to t.req.remote and makes it ready there.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) finishMigrate(t *Thread) {
	old := t.cpuID
	k.setCurrent(k.cpu(old), nil)
	k.mach.UnbindRT(old)
	t.cpuID = t.req.remote
	k.mach.BindRT(t.cpuID)
	t.migrations++
	t.dispatchOp = machine.OpContextSwitch
	k.makeReady(t, false)
	// The old CPU is free; let it pick its next thread.
	k.scheduleDispatch(k.cpu(old))
}

// Migrations returns how many times the thread has migrated between
// hardware threads.
func (t *Thread) Migrations() int { return t.migrations }
