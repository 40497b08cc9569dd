package sched

import (
	"bytes"
	"testing"

	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/task"
	"rtseed/internal/trace"
)

// FuzzBodyVsGoroutine is the differential oracle for the continuation
// executor: a UUniFast-generated many-task workload runs once on its
// continuation bodies and once, on a second kernel, as the same threads with
// blocking goroutine-executor bodies, and the two trace files must be
// byte-identical. The executors share every kernel handler, so any
// divergence — an extra request, a missing degenerate-op short-circuit, a
// reordered wake — shows up as a differing trace byte. Wired into
// `make fuzz-smoke` for 30s per CI run.
func FuzzBodyVsGoroutine(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(60), false)
	f.Add(uint64(0xbeef), uint8(17), uint8(15), true)
	f.Add(uint64(42), uint8(32), uint8(3), false)
	f.Add(uint64(7), uint8(1), uint8(90), true)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, utilRaw uint8, releaseOnly bool) {
		n := int(nRaw)%32 + 1
		util := float64(utilRaw%100+1) / 200 // (0, 0.5] per task
		newSim := func() (*engine.Engine, *kernel.Kernel, *bytes.Buffer) {
			mach, err := machine.New(machine.Topology{Cores: 4, ThreadsPerCore: 2},
				machine.NoLoad, machine.DefaultCostModel(), seed)
			if err != nil {
				t.Fatal(err)
			}
			e := engine.New()
			k := kernel.New(e, mach)
			var buf bytes.Buffer
			k.SetTrace(trace.New(trace.Config{
				CPUs: mach.Topology().NumHWThreads(),
				Sink: &buf,
			}))
			return e, k, &buf
		}
		// The periodic bodies never exit; run a bounded slice of virtual
		// time and cut both executors off at the same point.
		finish := func(e *engine.Engine, k *kernel.Kernel, buf *bytes.Buffer) []byte {
			for i := 0; i < 20000; i++ {
				if !e.Step() {
					break
				}
			}
			k.Shutdown()
			if err := k.Trace().Close(k.ThreadInfos()); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}

		e, k, buf := newSim()
		sys, err := NewManyTask(k, ManyTaskConfig{
			N:                  n,
			Seed:               seed,
			UtilizationPerTask: util,
			ReleaseOnly:        releaseOnly,
		})
		if err != nil {
			t.Skip(err) // generator rejected the parameters
		}
		// Every oracle thread is created before any starts, as NewManyTask
		// and Start do: the cost model prices dispatch by the number of
		// bound RT threads, so interleaving creation and start would
		// diverge the traces.
		oe, ok, obuf := newSim()
		oracleJobs := 0
		oracle := make([]*kernel.Thread, len(sys.Threads))
		for i, th := range sys.Threads {
			oracle[i] = ok.MustNewThread(kernel.ThreadConfig{
				Name:     th.Name(),
				Priority: th.Priority(),
				CPU:      th.CPU(),
			}, blockingManyTaskBody(sys.Set.Tasks[i], releaseOnly, &oracleJobs))
		}
		sys.Start()
		for _, th := range oracle {
			th.Start()
		}

		contTrace := finish(e, k, buf)
		gorTrace := finish(oe, ok, obuf)
		if sys.Jobs() != oracleJobs {
			t.Fatalf("job counts diverge: continuation %d, goroutine oracle %d", sys.Jobs(), oracleJobs)
		}
		if !bytes.Equal(contTrace, gorTrace) {
			i := 0
			for i < len(contTrace) && i < len(gorTrace) && contTrace[i] == gorTrace[i] {
				i++
			}
			t.Fatalf("traces diverge at byte %d (continuation %d bytes, goroutine oracle %d bytes; seed=%#x n=%d util=%.3f releaseOnly=%v)",
				i, len(contTrace), len(gorTrace), seed, n, util, releaseOnly)
		}
	})
}

// blockingManyTaskBody is manyTaskBody's program as a blocking
// goroutine-executor body: sleep until the release, compute the mandatory
// and wind-up parts unless releaseOnly, count the job, repeat.
func blockingManyTaskBody(tk task.Task, releaseOnly bool, jobs *int) func(*kernel.TCB) {
	return func(c *kernel.TCB) {
		for release := c.Now(); ; release = release.Add(tk.Period) {
			c.SleepUntil(release)
			if !releaseOnly {
				c.Compute(tk.Mandatory)
				c.Compute(tk.Windup)
			}
			*jobs++
		}
	}
}
