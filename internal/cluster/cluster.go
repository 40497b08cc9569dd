// Package cluster scales the single-machine RT-Seed simulation to a fleet:
// N simulated trading machines, each owning its own engine, machine model,
// and kernel on a shared virtual clock, executed in parallel across OS
// threads with results that are byte-identical for any worker count.
//
// The layer has two halves. The front end generates a deterministic client
// population (small periodic task sets in three latency classes), routes
// each client to machines in a Policy-defined order, and admits it with the
// analytical P-RMWP response-time test of internal/analysis — run on copies
// whose mandatory and wind-up parts are inflated by OverheadPerPart so the
// kernel's dispatch and timer costs are budgeted up front (see DESIGN.md
// §9). The back end simulates every machine's admitted workload over the
// horizon in epoch steps: machines advance independently between barriers
// and exchange utilization and deadline-miss signals only when every
// machine has reached the barrier, which is what makes the parallel run
// equal to the sequential one.
//
// Determinism argument: admission is sequential and pure (a function of
// Config alone); machines share no mutable state — each sim owns its
// engine, machine RNG, kernel, counters, and trace sink; the epoch executor
// is sweep.Each, whose completion is the barrier; and every cross-machine
// aggregation (signals, results, merged trace summaries) iterates machines
// in index order. No map iteration, wall clock, or worker identity feeds
// any result.
package cluster

import (
	"fmt"
	"math"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/machine"
	"rtseed/internal/sweep"
	"rtseed/internal/task"
	"rtseed/internal/trace"
	"rtseed/internal/workload"
)

// DefaultOverheadPerPart is the admission-time inflation of each mandatory
// and wind-up part. It budgets the kernel costs a job pays per part under
// the default cost model — a dispatch (55µs base), a timer interrupt +
// reprogram (34µs), and the ±3% cost jitter — with headroom for the
// preemptions higher-priority releases inject. The empirical contract is
// the analytical⊆empirical property test: every admitted set must run
// miss-free. Heavier Load conditions scale op costs up and need a larger
// margin.
const DefaultOverheadPerPart = 150 * time.Microsecond

// Config parameterizes one cluster run.
type Config struct {
	// Machines is the fleet size (default 8).
	Machines int
	// Topology is each machine's processor (default machine.CommodityServer).
	// Admission treats each core as one uniprocessor and the simulation pins
	// all of a core's tasks to its first hardware thread, so the per-core
	// response-time analysis is exact; remaining SMT siblings stay free for
	// non-RT work and contribute no SMT cost contention.
	Topology machine.Topology
	// Load is the background load condition on every machine (default
	// machine.NoLoad).
	Load machine.Load
	// Policy orders the machines offered to each client (default FirstFit).
	Policy Policy
	// Source is the offered client population. Nil selects the builtin
	// steady population of Clients clients (workload.NewBuiltin); a compiled
	// spec or a replayed trace plugs in here. When Source is non-nil,
	// Clients is overridden with Source.Len().
	Source workload.Source
	// Clients is the number of offered client task sets (default 10000;
	// ignored when Source is set).
	Clients int
	// Seed makes the client population and every machine's cost jitter a
	// pure function of the configuration.
	Seed uint64
	// Horizon is the simulated duration (default 1s).
	Horizon time.Duration
	// Epoch is the barrier interval at which machines exchange signals
	// (default Horizon/8; clamped to Horizon).
	Epoch time.Duration
	// OverheadPerPart inflates every mandatory and wind-up part by this
	// margin during admission analysis only. Zero selects
	// DefaultOverheadPerPart; negative disables the margin (admission then
	// ignores kernel overheads and admitted sets may miss deadlines).
	OverheadPerPart time.Duration
	// Workers bounds the OS threads simulating machines in parallel
	// (<= 0 selects GOMAXPROCS). Results are identical for any value.
	Workers int
	// TraceDir, when non-empty, writes one file-backed trace per machine to
	// TraceDir/machine-NNN.rtt. The files are byte-identical for any
	// Workers; trace.Merge folds their analyses into one fleet summary. A
	// trace file holds at most trace.MaxCPUs hardware threads, so a larger
	// Topology is rejected when TraceDir is set.
	TraceDir string
}

func (c *Config) fillDefaults() {
	if c.Machines == 0 {
		c.Machines = 8
	}
	if c.Topology == (machine.Topology{}) {
		c.Topology = machine.CommodityServer()
	}
	if c.Load == 0 {
		c.Load = machine.NoLoad
	}
	if c.Policy == 0 {
		c.Policy = FirstFit
	}
	if c.Source != nil {
		c.Clients = c.Source.Len()
	} else if c.Clients == 0 {
		c.Clients = 10000
	}
	if c.Horizon == 0 {
		c.Horizon = time.Second
	}
	if c.Epoch == 0 {
		c.Epoch = c.Horizon / 8
	}
	if c.Epoch <= 0 || c.Epoch > c.Horizon {
		c.Epoch = c.Horizon
	}
	if c.OverheadPerPart == 0 {
		c.OverheadPerPart = DefaultOverheadPerPart
	}
	if c.OverheadPerPart < 0 {
		c.OverheadPerPart = 0
	}
}

func (c *Config) validate() error {
	if c.Machines < 1 {
		return fmt.Errorf("cluster: need at least one machine, got %d", c.Machines)
	}
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	// Divide rather than multiply, so a huge topology cannot overflow.
	if c.TraceDir != "" && c.Topology.Cores > trace.MaxCPUs/c.Topology.ThreadsPerCore {
		return fmt.Errorf("cluster: TraceDir with %d cores × %d threads per machine; a trace file holds at most %d hardware threads",
			c.Topology.Cores, c.Topology.ThreadsPerCore, trace.MaxCPUs)
	}
	if !c.Load.Valid() {
		return fmt.Errorf("cluster: invalid load %d", c.Load)
	}
	if !c.Policy.Valid() {
		return fmt.Errorf("cluster: invalid policy %d", c.Policy)
	}
	if c.Clients < 0 {
		return fmt.Errorf("cluster: negative client count %d", c.Clients)
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("cluster: non-positive horizon %v", c.Horizon)
	}
	return nil
}

// ClassStats aggregates one client class across the fleet: the admission
// funnel (offered → admitted clients, with their task count) and the
// simulated service quality (completed jobs and deadline misses).
type ClassStats struct {
	Offered  int
	Admitted int
	Tasks    int
	Jobs     int
	Misses   int
}

// AdmissionRatio returns admitted/offered clients (0 when none offered).
func (s ClassStats) AdmissionRatio() float64 {
	if s.Offered == 0 {
		return 0
	}
	return float64(s.Admitted) / float64(s.Offered)
}

// MissRate returns misses/jobs (0 when no jobs completed).
func (s ClassStats) MissRate() float64 {
	if s.Jobs == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Jobs)
}

// MachineResult is one machine's share of a cluster run.
type MachineResult struct {
	Machine int
	// Clients and Tasks count what admission placed on the machine.
	Clients int
	Tasks   int
	// Utilization is the admitted inflated utilization per core, in [0, 1].
	Utilization float64
	// Busy is the mean simulated busy fraction of the machine's RT cores
	// over the whole horizon.
	Busy float64
	// Events is the machine's simulated event count.
	Events uint64
	// Jobs and Misses total the machine's completed jobs and deadline
	// misses.
	Jobs   int
	Misses int
}

// MachineSignal is the per-machine state exchanged at an epoch barrier —
// the feed a future autoscaler would act on (ROADMAP, Deferred).
type MachineSignal struct {
	Machine int
	// Busy is the machine's RT-core busy fraction within the epoch. It can
	// marginally exceed 1: the kernel credits a burst's busy time at the
	// burst's completion, so a burst straddling the barrier lands entirely
	// in the epoch it finishes in.
	Busy float64
	// Jobs and Misses are cumulative at the barrier.
	Jobs   int
	Misses int
}

// EpochReport is one barrier's fleet-wide view.
type EpochReport struct {
	// End is the barrier's virtual time.
	End time.Duration
	// Jobs and Misses are cumulative across the fleet at the barrier.
	Jobs   int
	Misses int
	// MeanBusy and MaxBusy summarize the machines' in-epoch busy fractions.
	MeanBusy float64
	MaxBusy  float64
	// Signals holds every machine's signal in machine-index order.
	Signals []MachineSignal
}

// WindowStats aggregates one workload rate window across the fleet: the
// admission funnel of the clients arriving inside it and the service quality
// of the jobs released inside it. Only windowed Sources (compiled specs,
// replayed traces) produce entries; the builtin population is unwindowed.
type WindowStats struct {
	Name       string
	Start, End time.Duration
	// Rate is the window's relative arrival-rate multiplier from the spec.
	Rate float64
	// Offered and Admitted count clients whose arrival instant falls in the
	// window.
	Offered  int
	Admitted int
	// Jobs and Misses count jobs released inside the window.
	Jobs   int
	Misses int
}

// MissRate returns misses/jobs (0 when no jobs completed).
func (w WindowStats) MissRate() float64 {
	if w.Jobs == 0 {
		return 0
	}
	return float64(w.Misses) / float64(w.Jobs)
}

// Result is the outcome of a cluster run. The admission half is filled by
// NewPlan; the simulation half by Simulate.
type Result struct {
	// Workload names the client population (Source.Name).
	Workload string
	// Offered, Admitted and AdmittedTasks describe the admission funnel.
	Offered       int
	Admitted      int
	AdmittedTasks int
	// MachinesUsed counts machines with at least one admitted client.
	MachinesUsed int
	// PerClass indexes ClassStats by workload.Class.
	PerClass [workload.NumClasses]ClassStats
	// Windows has one entry per workload rate window, in time order; empty
	// for unwindowed populations.
	Windows []WindowStats
	// Machines has one entry per machine, in index order.
	Machines []MachineResult
	// Epochs has one entry per barrier, in time order.
	Epochs []EpochReport
	// Events, Jobs and Misses total the fleet's simulation.
	Events uint64
	Jobs   int
	Misses int
}

// AdmissionRatio returns admitted/offered clients across all classes.
func (r *Result) AdmissionRatio() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Admitted) / float64(r.Offered)
}

// Plan is an admitted cluster configuration: the placement of every
// admitted client task onto a (machine, core) pair. A Plan is immutable
// once built; Simulate may be called repeatedly (the scaling benchmark
// replays one admission under different worker counts).
type Plan struct {
	cfg      Config
	src      workload.Source
	machines []*machineState
	placed   [][]placedTask // per machine, admission order
	res      Result         // admission half
}

// placedTask is one admitted task bound to a core of its machine.
type placedTask struct {
	t     task.Task
	class workload.Class
	core  int
	// arrival and lifetime carry the owning client's activity interval into
	// the simulation (zero lifetime: active until the horizon).
	arrival  time.Duration
	lifetime time.Duration
}

// Config returns the plan's configuration with defaults resolved.
func (p *Plan) Config() Config { return p.cfg }

// NewPlan generates the client population and runs admission control: each
// client is offered to machines in the Policy's order and placed on the
// first machine whose cores accept its whole (inflated) task set under the
// P-RMWP response-time test. Each core keeps an analysis.IncrementalRMWP,
// so an attempt re-solves only the fixed points the new task can change,
// warm-started from the cached response times, and a rejected client is
// rolled back core by core.
//
// A utilization watermark makes the post-saturation regime cheap: once a
// client with raw target utilization u has been rejected by every machine,
// any later client with utilization >= u is rejected without generating or
// analyzing its task set. Machines only gain load, so the repeat analysis
// could only fail again for the same set; across different sets the
// watermark is a heuristic — it can only cause extra rejections, never an
// unsound admission, so the analytical⊆empirical guarantee is unaffected.
// This is what lets a million-client sweep complete in seconds: after the
// fleet saturates, each remaining client costs one parameter draw and one
// comparison.
func NewPlan(cfg Config) (*Plan, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := &Plan{cfg: cfg, src: cfg.Source}
	if p.src == nil {
		p.src = workload.NewBuiltin(cfg.Seed, cfg.Clients)
	}
	p.machines = make([]*machineState, cfg.Machines)
	for i := range p.machines {
		p.machines[i] = newMachineState(cfg.Topology.Cores)
	}
	p.placed = make([][]placedTask, cfg.Machines)
	p.res.Workload = p.src.Name()
	wins := p.src.Windows()
	for _, w := range wins {
		p.res.Windows = append(p.res.Windows, WindowStats{Name: w.Name, Start: w.Start, End: w.End, Rate: w.Rate})
	}

	order := make([]int, 0, cfg.Machines)
	minRejectU := math.Inf(1)
	for id := 0; id < cfg.Clients; id++ {
		params := p.src.Params(id)
		cs := &p.res.PerClass[params.Class]
		cs.Offered++
		wi := windowIndex(wins, params.Arrival)
		if wi >= 0 {
			p.res.Windows[wi].Offered++
		}
		if params.Util >= minRejectU {
			continue
		}
		client, err := workload.Materialize(params)
		if err != nil {
			return nil, fmt.Errorf("cluster: client %d: %w", id, err)
		}
		order = p.order(params, order)
		admitted := false
		for _, mi := range order {
			cores, ok := p.machines[mi].admit(client.Set, cfg.OverheadPerPart)
			if !ok {
				continue
			}
			for k, t := range client.Set.Tasks {
				p.placed[mi] = append(p.placed[mi], placedTask{
					t: t, class: params.Class, core: cores[k],
					arrival: params.Arrival, lifetime: params.Lifetime,
				})
			}
			cs.Admitted++
			cs.Tasks += client.Set.Len()
			if wi >= 0 {
				p.res.Windows[wi].Admitted++
			}
			admitted = true
			break
		}
		if !admitted && params.Util < minRejectU {
			minRejectU = params.Util
		}
	}

	p.res.Offered = cfg.Clients
	for class := 0; class < workload.NumClasses; class++ {
		p.res.Admitted += p.res.PerClass[class].Admitted
		p.res.AdmittedTasks += p.res.PerClass[class].Tasks
	}
	p.res.Machines = make([]MachineResult, cfg.Machines)
	for i, m := range p.machines {
		p.res.Machines[i] = MachineResult{
			Machine:     i,
			Clients:     m.clients,
			Tasks:       m.tasks,
			Utilization: m.util / float64(cfg.Topology.Cores),
		}
		if m.clients > 0 {
			p.res.MachinesUsed++
		}
	}
	return p, nil
}

// windowIndex returns the index of the window containing instant at, or -1
// when the population is unwindowed. Instants at or past the last window's
// start (the profile clamps at the horizon) land in the last window.
func windowIndex(wins []workload.ResolvedWindow, at time.Duration) int {
	for i := len(wins) - 1; i >= 0; i-- {
		if at >= wins[i].Start {
			return i
		}
	}
	return len(wins) - 1
}

// order fills buf with machine indexes in the policy's preference order.
// Ties break toward the lower index, so the order — and with it the whole
// placement — is a pure function of the admission history.
func (p *Plan) order(c workload.ClientParams, buf []int) []int {
	buf = buf[:0]
	m := len(p.machines)
	switch p.cfg.Policy {
	case FirstFit:
		for i := 0; i < m; i++ {
			buf = append(buf, i)
		}
	case WorstFit:
		buf = sortedByKey(buf, m, func(i int) float64 { return p.machines[i].util })
	case LeastLoaded:
		buf = sortedByKey(buf, m, func(i int) float64 { return float64(p.machines[i].clients) })
	case SymbolAffinity:
		start := int(c.Symbol) % m
		for i := 0; i < m; i++ {
			buf = append(buf, (start+i)%m)
		}
	}
	return buf
}

// sortedByKey appends 0..n-1 to buf ordered by ascending key, ties by
// index. Insertion sort with a strict comparison is stable and allocates
// nothing beyond buf.
func sortedByKey(buf []int, n int, key func(int) float64) []int {
	for i := 0; i < n; i++ {
		buf = append(buf, i)
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && key(buf[j]) < key(buf[j-1]); j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
	return buf
}

// Simulate runs the planned fleet over the horizon and returns the full
// Result. Machines advance in parallel on up to cfg.Workers OS threads;
// between epoch barriers they share nothing, and every aggregate is
// gathered in machine-index order, so the Result (and any trace files) are
// byte-identical for any worker count.
func (p *Plan) Simulate() (*Result, error) {
	res := p.res
	res.Machines = append([]MachineResult(nil), p.res.Machines...)
	res.Windows = append([]WindowStats(nil), p.res.Windows...)

	// winEnds is the shared read-only window boundary table bodies attribute
	// job releases against.
	winEnds := make([]time.Duration, len(res.Windows))
	for i, w := range res.Windows {
		winEnds[i] = w.End
	}

	sims := make([]*sim, len(p.machines))
	for i := range sims {
		s, err := newSim(i, &p.cfg, p.placed[i], winEnds)
		if err != nil {
			return nil, err
		}
		sims[i] = s
	}

	horizon := engine.At(p.cfg.Horizon)
	for end := engine.Time(0); end < horizon; {
		end = end.Add(p.cfg.Epoch)
		if end > horizon {
			end = horizon
		}
		barrier := end
		if err := sweep.Each(p.cfg.Workers, len(sims), func(i int) error {
			sims[i].runUntil(barrier)
			return nil
		}); err != nil {
			return nil, err
		}
		// The Each call above is the epoch barrier: every machine has
		// reached end. Gather the exchanged signals in index order.
		ep := EpochReport{End: end.Duration(), Signals: make([]MachineSignal, len(sims))}
		for i, s := range sims {
			sig := s.signal(end)
			ep.Signals[i] = sig
			ep.Jobs += sig.Jobs
			ep.Misses += sig.Misses
			ep.MeanBusy += sig.Busy
			if sig.Busy > ep.MaxBusy {
				ep.MaxBusy = sig.Busy
			}
		}
		if len(sims) > 0 {
			ep.MeanBusy /= float64(len(sims))
		}
		res.Epochs = append(res.Epochs, ep)
	}

	for i, s := range sims {
		mr := &res.Machines[i]
		mr.Busy = s.meanBusy()
		mr.Events = s.eng.Steps()
		for class := range s.counters {
			c := s.counters[class]
			mr.Jobs += c.Jobs
			mr.Misses += c.Misses
			res.PerClass[class].Jobs += c.Jobs
			res.PerClass[class].Misses += c.Misses
		}
		for w := range s.winCounts {
			res.Windows[w].Jobs += s.winCounts[w].Jobs
			res.Windows[w].Misses += s.winCounts[w].Misses
		}
		res.Events += mr.Events
		res.Jobs += mr.Jobs
		res.Misses += mr.Misses
		if err := s.finish(); err != nil {
			return nil, fmt.Errorf("cluster: machine %d: %w", i, err)
		}
	}
	return &res, nil
}

// Run is NewPlan followed by Simulate.
func Run(cfg Config) (*Result, error) {
	p, err := NewPlan(cfg)
	if err != nil {
		return nil, err
	}
	return p.Simulate()
}
