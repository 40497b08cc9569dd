package kernel

import (
	"testing"

	"rtseed/internal/engine"
	"rtseed/internal/machine"
)

// testKernel builds a kernel on a small machine with zero-jitter costs so
// timing assertions are exact.
func testKernel(t *testing.T, load machine.Load) *Kernel {
	t.Helper()
	model := machine.DefaultCostModel()
	model.JitterFrac = 0
	topo := machine.Topology{Cores: 4, ThreadsPerCore: 2}
	m, err := machine.New(topo, load, model, 1)
	if err != nil {
		t.Fatal(err)
	}
	return New(engine.New(), m)
}

// step is one element of a seq body: it sees the previous action's outcome
// and returns the next action.
type step = func(c *TCB, r Resume) Next

// seq is a body that runs a fixed sequence of steps, one kernel action each,
// then exits. A test script is one step per action; a step that reads
// c.Now() or r observes the outcome of the action before it.
type seq struct {
	steps []step
	i     int
}

func (s *seq) Step(c *TCB, r Resume) Next {
	if s.i >= len(s.steps) {
		return Done()
	}
	f := s.steps[s.i]
	s.i++
	return f(c, r)
}

// act adapts a bare action to a seq step.
func act(n Next) step {
	return func(*TCB, Resume) Next { return n }
}

// script creates, unstarted, a thread on k running steps.
func script(k *Kernel, name string, prio int, cpu machine.HWThread, steps ...step) *Thread {
	return k.MustNewBodyThread(ThreadConfig{Name: name, Priority: prio, CPU: cpu}, &seq{steps: steps})
}
