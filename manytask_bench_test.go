package rtseed

// Many-task scale benchmarks: the per-event cost of the scheduling core as
// the task count grows. The paper evaluates one task on 228 hardware
// threads; these benches sweep n ∈ {1, 16, 128, 1024} tasks on the same
// simulated Xeon Phi to prove the O(1) core — the bitmap run queues and the
// hierarchical timing-wheel engine — keeps ns/event near-flat where the
// old 99-level scan + global binary heap grew with n.
//
// BENCH_PR3.json (make bench-json) records these alongside the pre-swap
// baseline; see README "Many-task benchmarks".

import (
	"fmt"
	"testing"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/engine/oracle"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/sched"
)

// manyTaskNs is the task-count sweep shared by the scale benchmarks.
var manyTaskNs = []int{1, 16, 128, 1024}

// manyTaskKernelNs extends the sweep for the kernel benchmark: with
// continuation bodies a simulated thread is one struct, not a goroutine, so
// the kernel scales to task counts the handshake executor could never
// reach. n=131072 exceeds the simulated Xeon Phi's 228 hardware threads by
// 575× and must still run at 0 allocs/op steady state.
var manyTaskKernelNs = []int{1, 16, 128, 1024, 16384, 131072}

// BenchmarkManyTaskKernel measures the kernel's steady-state cost per
// engine event with n periodic tasks pinned round-robin over all 228
// hardware threads of the simulated Xeon Phi 3120A. Each op is one event
// (timer fire, dispatch, compute completion, ...); the acceptance bar is
// near-flat ns/op as n grows, at 0 allocs/op
// (TestManyTaskKernelSteadyStateZeroAlloc enforces the allocation bound).
//
// The release variant runs sleep-only task bodies, so every event is
// scheduling-core work — timer arm and fire, dispatch, requeue — and the
// queue-structure swap dominates the number. The compute variant runs the
// full mandatory+wind-up job bodies. Bodies are continuation state machines
// stepped inline by the kernel (internal/kernel/body.go): running host code
// is a function call, so there is no goroutine-handshake floor under the
// per-event cost, and no goroutines regardless of n.
func BenchmarkManyTaskKernel(b *testing.B) {
	for _, mode := range manyTaskModes {
		mode := mode
		for _, n := range manyTaskKernelNs {
			n := n
			b.Run(fmt.Sprintf("%s/n=%d", mode.name, n), func(b *testing.B) {
				e, k, sys := warmManyTask(b, n, mode.releaseOnly)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !e.Step() {
						b.Fatal("engine ran dry")
					}
				}
				b.StopTimer()
				k.Shutdown()
				if sys.Jobs() == 0 && n <= b.N {
					b.Fatal("no jobs completed")
				}
			})
		}
	}
}

// TestManyTaskKernelSteadyStateZeroAlloc is the allocation contract behind
// BenchmarkManyTaskKernel: once every task has completed several jobs, an
// engine event — release wake-up, dispatch, compute completion — allocates
// nothing, in both body modes.
func TestManyTaskKernelSteadyStateZeroAlloc(t *testing.T) {
	const n = 1024
	for _, mode := range manyTaskModes {
		t.Run(mode.name, func(t *testing.T) {
			e, k, _ := warmManyTask(t, n, mode.releaseOnly)
			defer k.Shutdown()
			// One run is a whole burst of events: AllocsPerRun divides in
			// integers, so measuring single events would round a rare
			// allocation down to zero.
			const burst = 10 * n
			allocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < burst; i++ {
					if !e.Step() {
						t.Fatal("engine ran dry")
					}
				}
			})
			if allocs != 0 {
				t.Fatalf("%d steady-state engine events allocated %v times, want 0", burst, allocs)
			}
		})
	}
}

// manyTaskModes are the two task-body shapes of the many-task workload:
// sleep-only release bodies and full mandatory+wind-up job bodies.
var manyTaskModes = []struct {
	name        string
	releaseOnly bool
}{{"release", true}, {"compute", false}}

// warmManyTask builds n periodic tasks pinned round-robin over the
// simulated Xeon Phi 3120A, starts them, and steps the engine 64·n times:
// every task completes several jobs and the engine's node pool is warm
// before anything is measured.
func warmManyTask(tb testing.TB, n int, releaseOnly bool) (*engine.Engine, *kernel.Kernel, *sched.ManyTaskSystem) {
	tb.Helper()
	mach := machine.MustNew(machine.XeonPhi3120A(), machine.NoLoad, noJitter(), 1)
	e := engine.New()
	k := kernel.New(e, mach)
	sys, err := sched.NewManyTask(k, sched.ManyTaskConfig{
		N:                  n,
		Seed:               0xbeef,
		UtilizationPerTask: 0.15,
		ReleaseOnly:        releaseOnly,
	})
	if err != nil {
		tb.Fatal(err)
	}
	sys.Start()
	for i := 0; i < 64*n; i++ {
		if !e.Step() {
			tb.Fatal("engine ran dry during warm-up")
		}
	}
	return e, k, sys
}

// wheelVsHeapPeriod spreads n concurrent timers over distinct periods so
// the queue stays n deep while every step fires and re-arms one timer.
func wheelVsHeapPeriod(i int) time.Duration {
	return time.Duration(i*7919%1000+1) * time.Microsecond
}

// BenchmarkEngineWheelVsHeap compares the live engine (hierarchical timing
// wheel fronted by a near-horizon heap) against the reference single
// min-heap in internal/engine/oracle on the same workload: n outstanding
// periodic timers, one fire+re-arm per op. The heap's O(log n) sift shows
// up as ns/op growth with n; the wheel stays near-flat.
func BenchmarkEngineWheelVsHeap(b *testing.B) {
	for _, n := range manyTaskNs {
		n := n
		b.Run(fmt.Sprintf("wheel/n=%d", n), func(b *testing.B) {
			e := engine.New()
			var tick func()
			slot := 0
			tick = func() {
				i := slot
				slot = (slot + 1) % n
				e.After(wheelVsHeapPeriod(i), 0, tick)
			}
			for i := 0; i < n; i++ {
				e.Schedule(engine.At(wheelVsHeapPeriod(i)), 0, tick)
			}
			for i := 0; i < 4*n; i++ { // warm the pool and the wheel
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
		b.Run(fmt.Sprintf("heap/n=%d", n), func(b *testing.B) {
			e := oracle.New()
			var tick func()
			slot := 0
			tick = func() {
				i := slot
				slot = (slot + 1) % n
				e.Schedule(e.Now().Add(wheelVsHeapPeriod(i)), 0, tick)
			}
			for i := 0; i < n; i++ {
				e.Schedule(engine.At(wheelVsHeapPeriod(i)), 0, tick)
			}
			for i := 0; i < 4*n; i++ {
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
