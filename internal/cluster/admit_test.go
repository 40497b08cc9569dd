package cluster

import (
	"testing"
	"time"

	"rtseed/internal/machine"
	"rtseed/internal/task"
)

// TestAnalyticalAdmissionImpliesEmpiricalMissFree is the soundness property
// of the admission controller: every client the inflated P-RMWP analysis
// admits must run miss-free in the simulation. Analytical admission works
// on WCETs inflated by OverheadPerPart; the simulation charges the real
// kernel costs (dispatch, timers, jitter) — the property holds only if the
// margin truly budgets them, so this is the empirical contract for
// DefaultOverheadPerPart.
func TestAnalyticalAdmissionImpliesEmpiricalMissFree(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed simulation sweep")
	}
	for _, policy := range Policies() {
		for seed := uint64(1); seed <= 3; seed++ {
			res, err := Run(Config{
				Machines: 2,
				Topology: machine.Topology{Cores: 4, ThreadsPerCore: 2},
				Policy:   policy,
				Clients:  300,
				Seed:     seed,
				Horizon:  time.Second,
			})
			if err != nil {
				t.Fatalf("policy %v seed %d: %v", policy, seed, err)
			}
			if res.Admitted == 0 {
				t.Fatalf("policy %v seed %d: admitted no clients — property vacuous", policy, seed)
			}
			if res.Jobs == 0 {
				t.Fatalf("policy %v seed %d: no jobs completed", policy, seed)
			}
			if res.Misses != 0 {
				t.Errorf("policy %v seed %d: admitted workload missed %d/%d deadlines; OverheadPerPart margin too small",
					policy, seed, res.Misses, res.Jobs)
			}
		}
	}
}

// TestAdmitRollbackLeavesMachineUnchanged drives a machine to a rejection
// that places part of a client first, and checks the failed admission left
// nothing behind: the machine's totals, and on every core the task count
// and each cached response time, equal those of a machine that never saw
// the client.
func TestAdmitRollbackLeavesMachineUnchanged(t *testing.T) {
	ms := time.Millisecond
	first := task.MustNewSet(task.Uniform("a", 2*ms, 2*ms, 0, 0, 15*ms))
	// b.0 fits above a, and so does b.1 on its own; with both, a's
	// mandatory part ends past its optional deadline, so b.1 fails after
	// b.0 was placed and a's response times were re-solved.
	b0 := task.Uniform("b.0", ms, ms, 0, 0, 10*ms)
	over := task.MustNewSet(b0, task.Uniform("b.1", 2*ms, 2*ms, 0, 0, 12*ms))

	m, ref := newMachineState(1), newMachineState(1)
	for _, st := range []*machineState{m, ref} {
		if _, ok := st.admit(first, 0); !ok {
			t.Fatal("a 27%-utilization task should fit an empty core")
		}
	}
	probe := newMachineState(1)
	probe.admit(first, 0)
	if _, ok := probe.admit(task.MustNewSet(b0), 0); !ok {
		t.Fatal("b.0 alone should fit next to a; the rollback would go untested")
	}
	if _, ok := m.admit(over, 0); ok {
		t.Fatal("client admitted although a misses its optional deadline")
	}
	if m.util != ref.util || m.clients != ref.clients || m.tasks != ref.tasks {
		t.Fatalf("rollback left residue: util %v (want %v), clients %d (want %d), tasks %d (want %d)",
			m.util, ref.util, m.clients, ref.clients, m.tasks, ref.tasks)
	}
	for ci := range m.cores {
		got, want := &m.cores[ci].rmwp, &ref.cores[ci].rmwp
		if got.Len() != want.Len() {
			t.Fatalf("core %d: %d tasks after rollback, want %d", ci, got.Len(), want.Len())
		}
		for i := 0; i < got.Len(); i++ {
			gw, gm := got.Response(i)
			ww, wm := want.Response(i)
			if gw != ww || gm != wm {
				t.Errorf("core %d task %d: R^w %v R^m %v after rollback, want %v %v", ci, i, gw, gm, ww, wm)
			}
		}
	}
}

// TestAdmitInflationRejectsTightSets checks the margin is actually applied:
// a task set that fits exactly without overhead must be rejected once each
// part carries the inflation.
func TestAdmitInflationRejectsTightSets(t *testing.T) {
	full := task.MustNewSet(task.Uniform("a", 5*time.Millisecond, 5*time.Millisecond, 0, 0, 10*time.Millisecond))
	if _, ok := newMachineState(1).admit(full, 0); !ok {
		t.Fatal("exactly-full core rejected with zero margin")
	}
	if _, ok := newMachineState(1).admit(full, DefaultOverheadPerPart); ok {
		t.Fatal("exactly-full core admitted despite inflation margin")
	}
}

// TestMillionClientAdmission checks the admission front end handles an
// offered population three orders of magnitude beyond fleet capacity: the
// utilization watermark must make post-saturation rejections O(1), so a
// million-client sweep stays interactive (the acceptance bar is minutes;
// in practice this runs in well under a second).
func TestMillionClientAdmission(t *testing.T) {
	if testing.Short() {
		t.Skip("million-client sweep")
	}
	p, err := NewPlan(Config{Machines: 8, Clients: 1_000_000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if p.res.Offered != 1_000_000 {
		t.Fatalf("offered %d clients, want 1000000", p.res.Offered)
	}
	if p.res.Admitted == 0 || p.res.MachinesUsed != 8 {
		t.Fatalf("admitted %d clients on %d machines; fleet should saturate", p.res.Admitted, p.res.MachinesUsed)
	}
	for _, m := range p.res.Machines {
		if m.Utilization > 1 {
			t.Errorf("machine %d admitted %.3f utilization per core", m.Machine, m.Utilization)
		}
	}
}
