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
	// toward the destination core. The move itself happens in the thread's
	// pre-allocated migrateFn callback, with the destination stashed in
	// t.svcCPU until the service fires.
	cost := k.mach.RemoteCost(machine.OpContextSwitch, t.cpuID, target)
	t.svcCPU = target
	k.service(t, cost, t.migrateFn)
}

// Migrations returns how many times the thread has migrated between
// hardware threads.
func (t *Thread) Migrations() int { return t.migrations }
