package rtseed

// Tracing-overhead benchmarks: the per-event cost the tracing subsystem
// adds to the scheduling core, in three modes — tracing off (the nil-check
// baseline), ring-only (flight recorder, per-CPU rings overwritten in
// place), and file-backed (records encoded into one shared spill buffer
// that is written to a sink whenever it fills). The workload is the
// release-only many-task sweep of BenchmarkManyTaskKernel on the 228-thread
// Xeon Phi topology, so every event is scheduling-core work and the emit
// path runs on each of them.
//
// BENCH_PR4.json (make bench-json) records these; the acceptance bar is
// tracing-off within noise of the PR 3 BenchmarkKernelEventThroughput
// baseline and 0 allocs/op in every mode.

import (
	"io"
	"testing"

	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/sched"
	"rtseed/internal/trace"
)

func BenchmarkTracingOverhead(b *testing.B) {
	modes := []struct {
		name   string
		attach func(k *kernel.Kernel)
	}{
		{"off", func(k *kernel.Kernel) {}},
		{"ring", func(k *kernel.Kernel) {
			k.SetTrace(trace.New(trace.Config{
				CPUs: k.Machine().Topology().NumHWThreads(),
			}))
		}},
		{"file", func(k *kernel.Kernel) {
			k.SetTrace(trace.New(trace.Config{
				CPUs: k.Machine().Topology().NumHWThreads(),
				Sink: io.Discard,
			}))
		}},
	}
	for _, mode := range modes {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			mach := machine.MustNew(machine.XeonPhi3120A(), machine.NoLoad, noJitter(), 1)
			e := engine.New()
			k := kernel.New(e, mach)
			mode.attach(k)
			sys, err := sched.NewManyTask(k, sched.ManyTaskConfig{
				N:                  128,
				Seed:               0xbeef,
				UtilizationPerTask: 0.15,
				ReleaseOnly:        true,
			})
			if err != nil {
				b.Fatal(err)
			}
			sys.Start()
			for i := 0; i < 64*128; i++ {
				if !e.Step() {
					b.Fatal("engine ran dry during warm-up")
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !e.Step() {
					b.Fatal("engine ran dry")
				}
			}
			b.StopTimer()
			if tr := k.Trace(); tr != nil && tr.Emitted() == 0 {
				b.Fatal("tracer attached but nothing emitted")
			}
			k.Shutdown()
		})
	}
}
