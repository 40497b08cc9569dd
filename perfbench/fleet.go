package main

import (
	"bytes"
	"fmt"
	"reflect"
	"time"

	"rtseed/internal/cluster"
	"rtseed/internal/machine"
	"rtseed/internal/workload"
)

// The builtin flash-crash spec offered by 20,000 clients over a 1 s horizon
// to 32 machines of 16 cores x 2 SMT, first fit. The crash window saturates
// admission, so admission dominates setup while the admitted fleet's
// simulation is the op.
const (
	fleetSpec     = "flash-crash"
	fleetClients  = 20000
	fleetHorizon  = time.Second
	fleetMachines = 32
	fleetWorkers  = 2
	// fleetTicks is the market tick stream recorded beside the clients,
	// the rtseed-workload default.
	fleetTicks = 10000
	// fleetSpeedupReps is how many Simulate calls each side of the
	// Workers 1 vs 2 rung times.
	fleetSpeedupReps = 15
)

// fleetSys is one admitted fleet.
type fleetSys struct {
	plan   *cluster.Plan
	rtkLen int             // size of the encoded .rtk trace
	first  *cluster.Result // the warm-up Simulate's result
}

// buildFleet takes the spec through compile, the .rtk codec in memory and
// replay into admission.
func buildFleet(rec *recorder, seed uint64, workers int) (*fleetSys, error) {
	spec, ok := workload.BuiltinSpec(fleetSpec)
	if !ok {
		return nil, fmt.Errorf("no builtin spec %q", fleetSpec)
	}
	var src *workload.SpecSource
	var err error
	rec.do("workload.Compile", func() {
		src, err = workload.Compile(spec, workload.CompileConfig{Clients: fleetClients, Seed: seed, Horizon: fleetHorizon})
	})
	if err != nil {
		return nil, err
	}
	var tr *workload.Trace
	rec.do("workload.SpecSource.Trace", func() { tr = src.Trace(fleetTicks) })
	var buf bytes.Buffer
	rec.do("workload.Write", func() { err = workload.Write(&buf, tr) })
	if err != nil {
		return nil, err
	}
	var dec *workload.Trace
	rec.do("workload.Decode", func() { dec, err = workload.Decode(buf.Bytes()) })
	if err != nil {
		return nil, err
	}
	cfg := cluster.Config{
		Machines: fleetMachines,
		Topology: machine.Topology{Cores: 16, ThreadsPerCore: 2},
		Policy:   cluster.FirstFit,
		Source:   workload.NewReplay(dec),
		Seed:     dec.Meta.Seed,
		Horizon:  dec.Meta.Horizon,
		Workers:  workers,
	}
	s := &fleetSys{rtkLen: buf.Len()}
	rec.do("cluster.NewPlan", func() { s.plan, err = cluster.NewPlan(cfg) })
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (s *fleetSys) simulate(rec *recorder) (res *cluster.Result, err error) {
	rec.do("cluster.Plan.Simulate", func() { res, err = s.plan.Simulate() })
	return res, err
}

// fleetDigest covers the modelled outcome — admission, per-class and
// per-window results, placement, epochs — and leaves out engine event
// counts, which only say how the simulator got there.
func fleetDigest(res *cluster.Result) string {
	c := *res
	c.Events = 0
	c.Machines = append([]cluster.MachineResult(nil), res.Machines...)
	for i := range c.Machines {
		c.Machines[i].Events = 0
	}
	d := newDigest()
	d.add("%+v", c)
	return d.sum()
}

// checkFleet applies the seed-independent invariants to the first result.
func checkFleet(r *run, res *cluster.Result) {
	r.check(res.Offered == fleetClients, "fleet: offered %d clients, want %d", res.Offered, fleetClients)
	r.check(res.Admitted > 0, "fleet: no client admitted")
	r.check(res.Misses == 0, "fleet: admitted clients missed %d deadlines, want 0", res.Misses)
}

func runFleet(r *run) error {
	s, setup, err := setups(r, setupReps, func() (*fleetSys, error) {
		s, err := buildFleet(r.spans, r.seed, fleetWorkers)
		if err != nil {
			return nil, err
		}
		r.spans.do("warmup", func() { s.first, err = s.simulate(r.spans) })
		return s, err
	})
	if err != nil {
		return err
	}
	first := s.first
	checkFleet(r, first)

	l := r.timeOps(fleetHorizon, func(int) error {
		res, err := s.simulate(r.spans)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(res, first) {
			return fmt.Errorf("Simulate returned a different result from the first call")
		}
		return nil
	})
	r.report(l, setup)

	admitRatio := first.AdmissionRatio()
	missRatio := float64(first.Misses) / float64(first.Jobs)
	r.setE2E("admit_ratio", admitRatio, "fraction")
	r.setE2E("miss_ratio", missRatio, "fraction")
	fmt.Fprintf(r.out, "outcome: %d/%d clients admitted (%d tasks) on %d machines, %d jobs, %d misses; digest %s\n",
		first.Admitted, first.Offered, first.AdmittedTasks, first.MachinesUsed, first.Jobs, first.Misses, fleetDigest(first))

	if !r.traced() {
		return nil
	}
	r.setLayer("admit_ratio", admitRatio, "fraction")
	r.setLayer("miss_ratio", missRatio, "fraction")
	r.setLayer("workload.compile_ms", r.spans.medianMs("workload.Compile"), "ms")
	r.setLayer("workload.encode_ms", r.spans.medianMs("workload.Write"), "ms")
	r.setLayer("workload.decode_ms", r.spans.medianMs("workload.Decode"), "ms")
	r.setLayer("workload.rtk_mb", float64(s.rtkLen)/(1<<20), "MiB")
	r.setLayer("cluster.admit_ms", r.spans.medianMs("cluster.NewPlan"), "ms")
	r.setLayer("cluster.admitted", float64(first.Admitted), "count")
	r.setLayer("cluster.admitted_tasks", float64(first.AdmittedTasks), "count")
	r.setLayer("cluster.machines_used", float64(first.MachinesUsed), "count")
	for _, w := range first.Windows {
		if w.Name == "crash" {
			r.setLayer("cluster.crash_admit_ratio", float64(w.Admitted)/float64(w.Offered), "fraction")
		}
	}
	r.setLayer("cluster.events_per_op", float64(first.Events), "count")
	var maxEv uint64
	for _, m := range first.Machines {
		if m.Events > maxEv {
			maxEv = m.Events
		}
	}
	meanEv := float64(first.Events) / float64(len(first.Machines))
	r.setLayer("cluster.imbalance", float64(maxEv)/meanEv, "ratio")
	return fleetSpeedup(r, s, first)
}

// fleetSpeedup is the sweep ladder: the same admitted fleet simulated with
// one worker and with two, alternated so host drift hits both sides of a
// pair. The speedup is the median over pairs of the wall-time ratio.
func fleetSpeedup(r *run, two *fleetSys, want *cluster.Result) error {
	id := r.spans.begin("ladder.workers1.build", -1)
	one, err := buildFleet(r.spans, r.seed, 1)
	r.spans.end(id)
	if err != nil {
		return err
	}
	ratios := make([]float64, 0, fleetSpeedupReps)
	for i := 0; i < fleetSpeedupReps; i++ {
		var t [2]float64
		for j, side := range []struct {
			name string
			s    *fleetSys
		}{{"ladder.workers1", one}, {"ladder.workers2", two}} {
			id := r.spans.begin(side.name, -1)
			start := time.Now()
			res, err := side.s.simulate(r.spans)
			t[j] = float64(time.Since(start))
			r.spans.end(id)
			if err != nil {
				return err
			}
			r.check(reflect.DeepEqual(res, want), "fleet: %s result differs from Workers=%d", side.name, fleetWorkers)
		}
		ratios = append(ratios, t[0]/t[1])
	}
	r.setLayer("sweep.speedup_x", median(ratios), "x")
	return nil
}
