package kernel

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/machine"
	"rtseed/internal/trace"
)

// Randomized programs: two to six threads run random programs of 4-17 ops
// drawn from every kernel request kind — plain, interruptible and
// zero-length computes; absolute, relative and already-due sleeps; condvar
// waits, signals and broadcasts; plain and priority-inheritance mutex
// sections; timers that terminate a burst or stay pending; alarm masks;
// local and remote charged ops; migrations, to another CPU or the current
// one; yields and early exits — on a jittered machine under CPU load.
// A wait nobody signals stays blocked until Shutdown unwinds it.

// randomProgram draws the program of seed and creates its threads on k,
// unstarted, in creation order. The draws depend on seed alone, so every
// kernel gets the same program.
func randomProgram(k *Kernel, seed uint64) []*Thread {
	rng := engine.NewRand(seed)
	cv := k.NewCondVar("cv")
	mutexes := [2]*Mutex{k.NewMutex("mu"), k.NewPIMutex("pi")}
	nhw := k.Machine().Topology().NumHWThreads()
	anyCPU := func() machine.HWThread { return machine.HWThread(rng.Intn(nhw)) }
	var threads []*Thread
	for i, n := 0, 2+rng.Intn(5); i < n; i++ {
		cfg := ThreadConfig{Name: fmt.Sprintf("p%d", i), Priority: 40 + rng.Intn(20), CPU: anyCPU()}
		var steps []step
		for j, ops := 0, 4+rng.Intn(14); j < ops; j++ {
			d := time.Duration(rng.Intn(5)+1) * time.Millisecond
			switch rng.Intn(19) {
			case 0:
				steps = append(steps, act(Compute(d)))
			case 1:
				steps = append(steps, act(Compute(0)))
			case 2:
				// An interruptible burst its own timer may cut short; a
				// terminated burst leaves SIGALRM masked until restored.
				steps = append(steps,
					func(c *TCB, r Resume) Next { return TimerSet(c.Now().Add(d / 2)) },
					act(ComputeInterruptible(d)),
					func(c *TCB, r Resume) Next {
						if r.Completed {
							return TimerStop()
						}
						return SetAlarmMask(false)
					})
			case 3:
				steps = append(steps, func(c *TCB, r Resume) Next { return SleepUntil(c.Now().Add(d)) })
			case 4:
				steps = append(steps, func(c *TCB, r Resume) Next { return SleepUntil(c.Now()) })
			case 5:
				steps = append(steps, act(Sleep(d)))
			case 6:
				steps = append(steps, act(CondWait(cv)))
			case 7:
				steps = append(steps, act(CondSignal(cv)))
			case 8:
				steps = append(steps, act(CondBroadcast(cv)))
			case 9:
				// The timer fires inside an uninterruptible burst; unless
				// stopped, the alarm stays pending for the next
				// interruptible one.
				steps = append(steps,
					func(c *TCB, r Resume) Next { return TimerSet(c.Now().Add(d / 2)) },
					act(Compute(d)))
				if rng.Intn(2) == 0 {
					steps = append(steps, act(TimerStop()))
				}
			case 10:
				steps = append(steps, act(SetAlarmMask(rng.Intn(2) == 0)))
			case 11:
				steps = append(steps, act(ChargeOp(machine.OpSigSetjmp)))
			case 12:
				steps = append(steps, act(ChargeOpRemote(machine.OpCondSignal, anyCPU())))
			case 13, 14:
				m := mutexes[rng.Intn(2)]
				steps = append(steps, act(MutexLock(m)), act(Compute(d)), act(MutexUnlock(m)))
			case 15:
				steps = append(steps, act(Migrate(anyCPU())))
			case 16:
				steps = append(steps, func(c *TCB, r Resume) Next { return Migrate(c.HWThread()) })
			case 17:
				steps = append(steps, act(Yield()))
			case 18:
				steps = append(steps, act(Done()))
			}
		}
		threads = append(threads, k.MustNewBodyThread(cfg, &seq{steps: steps}))
	}
	return threads
}

// programStepLimit bounds a random program's run: the longest program
// finishes in a few thousand engine events.
const programStepLimit = 100000

// runProgram runs the program of seed to completion and returns its trace
// file, after checking that it finished within programStepLimit events and
// left every thread exited.
func runProgram(t testing.TB, seed uint64, w *traceWatch) []byte {
	t.Helper()
	mach, err := machine.New(machine.Topology{Cores: 4, ThreadsPerCore: 2}, machine.CPULoad, machine.DefaultCostModel(), seed)
	if err != nil {
		t.Fatal(err)
	}
	file, drained, k := tracedRun(t, mach, programStepLimit, w, func(k *Kernel) {
		for _, th := range randomProgram(k, seed) {
			th.Start()
		}
	})
	if !drained {
		t.Fatalf("seed %d: still running after %d events", seed, programStepLimit)
	}
	for _, th := range k.Threads() {
		if th.State() != StateExited {
			t.Fatalf("seed %d: thread %v still %v after Shutdown", seed, th, th.State())
		}
	}
	return file
}

// tracedRun builds a kernel on mach with a file-backed tracer, lets build
// create and start its threads, runs at most maxSteps engine events, shuts
// the kernel down and returns the trace file, whether the event queue
// drained, and the kernel. w checks every record; a drained run must leave
// no thread runnable.
func tracedRun(t testing.TB, mach *machine.Machine, maxSteps int, w *traceWatch, build func(k *Kernel)) ([]byte, bool, *Kernel) {
	t.Helper()
	eng := engine.New()
	k := New(eng, mach)
	var buf bytes.Buffer
	tr := trace.New(trace.Config{CPUs: mach.Topology().NumHWThreads(), Sink: &buf})
	k.SetTrace(tr)
	w.attach(t, tr)
	build(k)
	drained := false
	for i := 0; i < maxSteps && !drained; i++ {
		drained = !eng.Step()
	}
	if !drained {
		drained = eng.Pending() == 0
	}
	if drained {
		// With no event left, a thread can only be done or waiting on a
		// condition variable or mutex: a ready, running or sleeping one was
		// lost by the scheduler.
		for _, th := range k.Threads() {
			if s := th.State(); s != StateExited && s != StateBlocked {
				t.Fatalf("thread %v left %v with no event pending", th, s)
			}
		}
	}
	k.Shutdown()
	if err := tr.Close(k.ThreadInfos()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), drained, k
}

// trigram is three consecutive trace-record kinds of one thread: the
// coverage feature the frozen corpus is selected by.
type trigram [3]trace.Kind

// traceWatch checks two invariants on every record of a run — a hardware
// thread runs at most one thread at a time, and its timestamps never go
// backwards — and collects the run's per-thread trigrams.
type traceWatch struct {
	trigrams map[trigram]bool

	t       testing.TB
	running map[uint16]uint32 // hardware thread -> running TID
	on      map[uint32]uint16 // running TID -> its hardware thread
	last    map[uint16]engine.Time
	recent  map[uint32][]trace.Kind
}

func (w *traceWatch) attach(t testing.TB, tr *trace.Tracer) {
	w.t = t
	w.trigrams = map[trigram]bool{}
	w.running = map[uint16]uint32{}
	w.on = map[uint32]uint16{}
	w.last = map[uint16]engine.Time{}
	w.recent = map[uint32][]trace.Kind{}
	tr.Tap(w.observe)
}

func (w *traceWatch) observe(rec trace.Record) {
	if last, ok := w.last[rec.CPU]; ok && rec.At < last {
		w.t.Fatalf("cpu %d: record at %v after one at %v", rec.CPU, rec.At, last)
	}
	w.last[rec.CPU] = rec.At
	// Only run-state transitions move a thread on or off its CPU.
	switch rec.Kind {
	case trace.KindDispatch:
		if tid, busy := w.running[rec.CPU]; busy {
			w.t.Fatalf("cpu %d: thread %d dispatched at %v while thread %d runs", rec.CPU, rec.TID, rec.At, tid)
		}
		w.running[rec.CPU] = rec.TID
		w.on[rec.TID] = rec.CPU
	case trace.KindReady, trace.KindPreempt, trace.KindBlock, trace.KindSleep, trace.KindExit:
		if cpu, ok := w.on[rec.TID]; ok {
			delete(w.on, rec.TID)
			delete(w.running, cpu)
		}
	}
	h := append(w.recent[rec.TID], rec.Kind)
	if len(h) > 3 {
		h = h[1:]
	}
	if len(h) == 3 {
		w.trigrams[trigram{h[0], h[1], h[2]}] = true
	}
	w.recent[rec.TID] = h
}

// checkProgram runs the program of seed twice. Each run must finish within
// programStepLimit events with no thread left runnable, leave every thread
// exited after Shutdown, and hold the traceWatch invariants; the two trace
// files must be identical.
func checkProgram(t *testing.T, seed uint64) {
	first := runProgram(t, seed, &traceWatch{})
	if second := runProgram(t, seed, &traceWatch{}); !bytes.Equal(first, second) {
		t.Fatalf("seed %d: two runs wrote different traces (%d and %d bytes)", seed, len(first), len(second))
	}
}

// TestPropertyRandomPrograms checks every seed the frozen corpus was
// selected from.
func TestPropertyRandomPrograms(t *testing.T) {
	for seed := uint64(1); seed <= frozenSeeds; seed++ {
		checkProgram(t, seed)
	}
}

// FuzzKernelPrograms checks the programs of seeds the fuzzer chooses.
func FuzzKernelPrograms(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(frozenSeeds + 1))
	f.Add(uint64(1) << 63)
	f.Fuzz(checkProgram)
}
