// Package overhead reproduces the paper's experimental evaluation (§V,
// Figs. 9-13): it runs the parallel-extended imprecise task of §V-A on the
// simulated Xeon Phi 3120A under the three background loads and the three
// assignment policies, and measures the four overheads of Fig. 9 with the
// per-hardware-thread timestamp counter:
//
//	Δm — release time → beginning of the mandatory part (Fig. 10)
//	Δs — switching the mandatory thread to the optional thread (Fig. 11)
//	Δb — signalling all parallel optional threads (Fig. 12)
//	Δe — optional deadline → beginning of the wind-up part (Fig. 13)
package overhead

import (
	"fmt"
	"time"

	"rtseed/internal/assign"
	"rtseed/internal/core"
	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/task"
)

// Kind identifies one of the four measured overheads.
type Kind int

const (
	// DeltaM is the overhead of beginning the mandatory part.
	DeltaM Kind = iota + 1
	// DeltaS is the overhead of switching the mandatory thread to the
	// optional thread.
	DeltaS
	// DeltaB is the overhead of beginning the parallel optional threads
	// (the pthread_cond_signal loop).
	DeltaB
	// DeltaE is the overhead of ending the parallel optional threads.
	DeltaE
)

// Kinds lists the four overheads in figure order (10, 11, 12, 13).
func Kinds() []Kind { return []Kind{DeltaM, DeltaS, DeltaB, DeltaE} }

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case DeltaM:
		return "begin-mandatory"
	case DeltaS:
		return "switch-to-optional"
	case DeltaB:
		return "begin-optional"
	case DeltaE:
		return "end-optional"
	default:
		return "unknown-overhead"
	}
}

// Figure returns the paper figure number the overhead is plotted in.
func (k Kind) Figure() int {
	switch k {
	case DeltaM:
		return 10
	case DeltaS:
		return 11
	case DeltaB:
		return 12
	case DeltaE:
		return 13
	default:
		return 0
	}
}

// NumPartsSweep is the paper's np set (§V-A) on the 228-hardware-thread
// Xeon Phi.
func NumPartsSweep() []int { return []int{4, 8, 16, 32, 57, 114, 171, 228} }

// The evaluation task τ1 of §V-A on the Xeon Phi 3120A: T1 = D1 = 1 s (the
// OANDA tick interval) and m1 = w1 = 250 ms, with the optional deadline
// OD = T1 − w1 per the paper's Theorem 2 citation. The wind-up part
// computes 150 ms of its 250 ms budget; the difference is the overhead
// allowance the paper folds into the WCET (§II-A), leaving 100 ms for Δe
// and Δm. Each o1,k = 1 s always overruns the optional deadline, so every
// part is terminated: the paper's worst-case overhead condition.
const (
	period       = time.Second
	mandatory    = 250 * time.Millisecond
	windupBudget = 250 * time.Millisecond
	windupExec   = 150 * time.Millisecond
	optionalExec = time.Second
)

// Config configures one measurement run.
type Config struct {
	// Load is the background load condition.
	Load machine.Load
	// Policy assigns the parallel optional parts to hardware threads.
	Policy assign.Policy
	// NumParts is np, the number of parallel optional parts.
	NumParts int
	// Jobs is the number of jobs measured (the paper uses 100).
	Jobs int
	// Seed seeds the machine jitter.
	Seed uint64
}

func (c *Config) fillDefaults() {
	if c.Jobs == 0 {
		c.Jobs = 100
	}
	if c.Seed == 0 {
		c.Seed = 0x5eed
	}
}

func (c *Config) validate() error {
	if !c.Load.Valid() {
		return fmt.Errorf("overhead: invalid load %d", c.Load)
	}
	if !c.Policy.Valid() {
		return fmt.Errorf("overhead: invalid policy %d", c.Policy)
	}
	if n := machine.XeonPhi3120A().NumHWThreads(); c.NumParts <= 0 || c.NumParts > n {
		return fmt.Errorf("overhead: np=%d outside [1,%d]", c.NumParts, n)
	}
	return nil
}

// Measurement holds the per-job overhead samples of one run.
type Measurement struct {
	Config  Config
	Samples map[Kind][]time.Duration
}

// Mean returns the mean of the samples for kind (0 if none).
func (m *Measurement) Mean(kind Kind) time.Duration {
	s := m.Samples[kind]
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range s {
		sum += v
	}
	return sum / time.Duration(len(s))
}

// Max returns the maximum sample for kind.
func (m *Measurement) Max(kind Kind) time.Duration {
	var max time.Duration
	for _, v := range m.Samples[kind] {
		if v > max {
			max = v
		}
	}
	return max
}

// Run executes one measurement: Jobs jobs of the single evaluation task τ1
// with NumParts parallel optional parts assigned under Policy, on a machine
// under Load. It returns the per-job samples of all four overheads.
func Run(cfg Config) (*Measurement, error) {
	cfg.fillDefaults()
	meas := &Measurement{
		Config:  cfg,
		Samples: map[Kind][]time.Duration{},
	}
	// Per-job probe state: the switch overhead Δs spans two probes.
	var blockAt engine.Time
	probes := core.Probes{
		OnRelease: func(job int, release, start engine.Time) {
			meas.Samples[DeltaM] = append(meas.Samples[DeltaM], start.Sub(release))
		},
		OnSignalLoop: func(job int, start, end engine.Time) {
			meas.Samples[DeltaB] = append(meas.Samples[DeltaB], end.Sub(start))
		},
		OnMandatoryBlock: func(job int, at engine.Time) {
			blockAt = at
		},
		OnOptionalStart: func(job, part int, at engine.Time) {
			// The first parallel optional thread runs on the mandatory
			// thread's hardware thread; its start marks the switch.
			if part == 0 {
				meas.Samples[DeltaS] = append(meas.Samples[DeltaS], at.Sub(blockAt))
			}
		},
		OnWindupStart: func(job int, odAbs, start engine.Time) {
			meas.Samples[DeltaE] = append(meas.Samples[DeltaE], start.Sub(odAbs))
		},
	}
	if _, err := simulate(cfg, probes); err != nil {
		return nil, err
	}
	for _, kind := range Kinds() {
		if got := len(meas.Samples[kind]); got != cfg.Jobs {
			return nil, fmt.Errorf("overhead: %v has %d samples, want %d", kind, got, cfg.Jobs)
		}
	}
	return meas, nil
}

// simulate runs cfg's jobs of τ1 to completion with probes attached and
// returns the finished process.
func simulate(cfg Config, probes core.Probes) (*core.Process, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	topo := machine.XeonPhi3120A()
	mach, err := machine.New(topo, cfg.Load, machine.DefaultCostModel(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	k := kernel.New(engine.New(), mach)
	cpus, err := assign.HWThreads(topo, cfg.Policy, cfg.NumParts)
	if err != nil {
		return nil, err
	}
	p, err := core.NewProcess(k, core.Config{
		Task:              task.Uniform("tau1", mandatory, windupExec, optionalExec, cfg.NumParts, period),
		MandatoryPriority: 90, // the paper's running example priority
		MandatoryCPU:      0,  // hardware thread 0 of core 0 (§V-A)
		OptionalCPUs:      cpus,
		OptionalDeadline:  period - windupBudget,
		Jobs:              cfg.Jobs,
		Probes:            probes,
	})
	if err != nil {
		return nil, err
	}
	p.Start()
	k.Run()
	return p, nil
}
