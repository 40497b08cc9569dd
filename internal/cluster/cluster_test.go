package cluster

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/machine"
	"rtseed/internal/trace"
	"rtseed/internal/workload"
)

func testConfig(workers int) Config {
	return Config{
		Machines: 3,
		Topology: machine.Topology{Cores: 4, ThreadsPerCore: 2},
		Clients:  200,
		Seed:     42,
		Horizon:  400 * time.Millisecond,
		Workers:  workers,
	}
}

// TestSimulateDeterministicAcrossWorkers is the cluster's core guarantee —
// and the executable form of the engine/kernel isolation audit: if any
// package-level mutable state leaked into the per-machine hot path, racing
// worker counts would diverge.
func TestSimulateDeterministicAcrossWorkers(t *testing.T) {
	var ref *Result
	for _, workers := range []int{1, 7, 8} {
		res, err := Run(testConfig(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res
			if ref.Admitted == 0 || ref.Jobs == 0 {
				t.Fatalf("degenerate reference run: %+v", ref)
			}
			continue
		}
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("workers=%d result differs from workers=1", workers)
		}
	}
}

// TestTraceFilesDeterministicAcrossWorkers checks the per-machine trace
// files are byte-identical for any worker count and that trace.Merge agrees
// with the simulation's own counters.
func TestTraceFilesDeterministicAcrossWorkers(t *testing.T) {
	read := func(workers int) (*Result, [][]byte) {
		dir := t.TempDir()
		cfg := testConfig(workers)
		cfg.TraceDir = dir
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var files [][]byte
		for i := 0; i < cfg.Machines; i++ {
			b, err := os.ReadFile(filepath.Join(dir, TraceFileName(i)))
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, b)
		}
		return res, files
	}

	res1, files1 := read(1)
	_, files8 := read(8)
	for i := range files1 {
		if string(files1[i]) != string(files8[i]) {
			t.Errorf("machine %d trace differs between workers=1 and workers=8", i)
		}
	}

	var analyses []*trace.Analysis
	for i, b := range files1 {
		dir := t.TempDir()
		path := filepath.Join(dir, TraceFileName(i))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		tr, err := trace.ReadFile(path)
		if err != nil {
			t.Fatalf("machine %d: %v", i, err)
		}
		analyses = append(analyses, trace.Analyze(tr))
	}
	merged := trace.Merge(analyses...)
	if merged.Files != len(files1) {
		t.Fatalf("merged %d files, want %d", merged.Files, len(files1))
	}
	if merged.Jobs != res1.Jobs || merged.Misses != res1.Misses {
		t.Errorf("merged trace jobs=%d misses=%d, simulation counted jobs=%d misses=%d",
			merged.Jobs, merged.Misses, res1.Jobs, res1.Misses)
	}
	if merged.Tasks != res1.AdmittedTasks {
		t.Errorf("merged trace saw %d tasks, admission placed %d", merged.Tasks, res1.AdmittedTasks)
	}
	if merged.Lost != 0 {
		t.Errorf("file-backed traces lost %d records", merged.Lost)
	}
}

// TestClusterOfOneMatchesDirectKernel checks the epoch-stepped cluster path
// adds nothing to the simulation itself: one machine advanced in epoch
// slices with barrier bookkeeping must produce exactly the events, jobs,
// and misses of the same kernel driven straight to the horizon.
func TestClusterOfOneMatchesDirectKernel(t *testing.T) {
	cfg := testConfig(1)
	cfg.Machines = 1
	cfg.Epoch = 50 * time.Millisecond
	plan, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Simulate()
	if err != nil {
		t.Fatal(err)
	}

	// Direct runner: same placement, same seed-derived machine, one
	// uninterrupted advance to the horizon.
	direct, err := newSim(0, &plan.cfg, plan.placed[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	direct.runUntil(engine.At(cfg.Horizon))
	steps := direct.eng.Steps()
	var jobs, misses int
	for _, c := range direct.counters {
		jobs += c.Jobs
		misses += c.Misses
	}
	if err := direct.finish(); err != nil {
		t.Fatal(err)
	}

	m := res.Machines[0]
	if m.Events != steps || m.Jobs != jobs || m.Misses != misses {
		t.Errorf("cluster-of-1 (events=%d jobs=%d misses=%d) != direct kernel (events=%d jobs=%d misses=%d)",
			m.Events, m.Jobs, m.Misses, steps, jobs, misses)
	}
	if len(res.Epochs) != 8 {
		t.Errorf("got %d epochs, want 8", len(res.Epochs))
	}
}

// TestClusterParallelSpeedup requires the epoch executor to actually scale:
// with 8 machines on a >= 4-CPU host, the parallel run must be at least 3x
// faster than workers=1. Hosts with fewer CPUs skip (the determinism tests
// still cover correctness there); BenchmarkClusterScaling reports the
// speedup-x metric on every host.
func TestClusterParallelSpeedup(t *testing.T) {
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs for a meaningful speedup bound, have %d", runtime.NumCPU())
	}
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	cfg := Config{
		Machines: 8,
		Topology: machine.Topology{Cores: 8, ThreadsPerCore: 2},
		Clients:  4000,
		Seed:     3,
		Horizon:  2 * time.Second,
	}
	plan, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wall := func(workers int) time.Duration {
		plan.cfg.Workers = workers
		start := time.Now()
		if _, err := plan.Simulate(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	wall(runtime.NumCPU()) // warm up page cache and scheduler
	seq := wall(1)
	par := wall(8)
	speedup := float64(seq) / float64(par)
	t.Logf("sequential %v, parallel %v, speedup %.2fx", seq, par, speedup)
	if speedup < 3 {
		t.Errorf("speedup %.2fx < 3x with 8 machines on %d CPUs", speedup, runtime.NumCPU())
	}
}

// TestRoutingPolicies drives order() directly on synthetic machine states.
func TestRoutingPolicies(t *testing.T) {
	p := &Plan{cfg: Config{}, machines: []*machineState{
		{util: 3.0, clients: 1},
		{util: 1.0, clients: 5},
		{util: 2.0, clients: 3},
	}}

	cases := []struct {
		policy Policy
		params workload.ClientParams
		want   []int
	}{
		{FirstFit, workload.ClientParams{}, []int{0, 1, 2}},
		{WorstFit, workload.ClientParams{}, []int{1, 2, 0}},
		{LeastLoaded, workload.ClientParams{}, []int{0, 2, 1}},
		{SymbolAffinity, workload.ClientParams{Symbol: 4}, []int{1, 2, 0}}, // 4 % 3 == 1
		{SymbolAffinity, workload.ClientParams{Symbol: 5}, []int{2, 0, 1}},
	}
	for _, c := range cases {
		p.cfg.Policy = c.policy
		got := p.order(c.params, nil)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v(symbol=%d): got %v, want %v", c.policy, c.params.Symbol, got, c.want)
		}
	}
}

// TestWorstFitBalances checks the placement policies differ as advertised:
// worst-fit spreads admitted utilization more evenly than first-fit packs.
func TestWorstFitBalances(t *testing.T) {
	spread := func(policy Policy) (used int, maxMin float64) {
		cfg := testConfig(1)
		cfg.Machines = 4
		cfg.Clients = 60
		cfg.Policy = policy
		plan, err := NewPlan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := 2.0, 0.0
		for _, m := range plan.res.Machines {
			if m.Utilization < lo {
				lo = m.Utilization
			}
			if m.Utilization > hi {
				hi = m.Utilization
			}
		}
		return plan.res.MachinesUsed, hi - lo
	}
	ffUsed, ffSpread := spread(FirstFit)
	wfUsed, wfSpread := spread(WorstFit)
	if wfUsed < ffUsed {
		t.Errorf("worst-fit used %d machines, first-fit %d", wfUsed, ffUsed)
	}
	if wfSpread > ffSpread {
		t.Errorf("worst-fit utilization spread %.3f wider than first-fit's %.3f", wfSpread, ffSpread)
	}
}

// TestConfigValidation covers the error paths.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Machines: -1},
		{Policy: Policy(99)},
		{Load: machine.Load(99)},
		{Clients: -5},
		{Horizon: -time.Second},
		// A trace file stores CPU numbers as u16; the product of the
		// second topology overflows int to 0, which must not pass.
		{TraceDir: "d", Topology: machine.Topology{Cores: 70000, ThreadsPerCore: 1}},
		{TraceDir: "d", Topology: machine.Topology{Cores: 1 << 40, ThreadsPerCore: 1 << 40}},
	}
	for i, cfg := range bad {
		if _, err := NewPlan(cfg); err == nil {
			t.Errorf("config %d: invalid configuration accepted", i)
		}
	}
}
