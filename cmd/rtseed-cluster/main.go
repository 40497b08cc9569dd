// Command rtseed-cluster runs the fleet-scale simulation: it offers a
// population of client task sets to N simulated trading machines, admits
// them with the analytical P-RMWP response-time test, routes them with the
// selected policy, simulates every machine in parallel, and reports the
// admission funnel, per-class deadline-miss rates, placement, and epoch
// signals.
//
// Usage:
//
//	rtseed-cluster [-clients N] [-machines N] [-cores N] [-smt N]
//	               [-policy first-fit|worst-fit|least-loaded|affinity]
//	               [-load none|cpu|cpumem] [-horizon D] [-epoch D]
//	               [-seed N] [-margin D] [-workers N] [-trace-dir DIR]
//	               [-spec FILE|NAME] [-replay FILE.rtk]
//	               [-quick] [-bench] [-o FILE]
//
// -spec compiles a workload spec (a JSON file or a builtin name: steady,
// flash-crash, open-close) into the offered population; -replay loads a
// recorded .rtk trace and reproduces its generating run exactly (clients,
// seed, and horizon come from the trace, so the report matches the
// generating run's byte-for-byte under the same fleet flags).
//
// The report (stdout or -o) is a pure function of the flags — byte-identical
// for any -workers value. Wall-clock timing and the -bench speedup
// measurement go to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"rtseed/internal/cluster"
	"rtseed/internal/machine"
	"rtseed/internal/report"
	"rtseed/internal/sweep"
	"rtseed/internal/trace"
	"rtseed/internal/workload"
)

// options is the parsed command line.
type options struct {
	clients  int
	machines int
	cores    int
	smt      int
	policy   cluster.Policy
	load     machine.Load
	horizon  time.Duration
	epoch    time.Duration
	seed     uint64
	margin   time.Duration
	workers  int
	traceDir string
	spec     string
	replay   string
	quick    bool
	bench    bool
	out      string
}

// parseFlags registers the command's flags on fs, parses args, and
// validates the result. The flag set is injected so tests can parse without
// touching the process-global flag.CommandLine.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	var policyName, loadName string
	fs.IntVar(&o.clients, "clients", 10000, "client task sets offered to the fleet")
	fs.IntVar(&o.machines, "machines", 8, "simulated machines in the fleet")
	fs.IntVar(&o.cores, "cores", 16, "cores per machine")
	fs.IntVar(&o.smt, "smt", 2, "SMT threads per core")
	fs.StringVar(&policyName, "policy", "first-fit", "routing policy: first-fit, worst-fit, least-loaded, or affinity")
	fs.StringVar(&loadName, "load", "none", "background load on every machine: none, cpu, or cpumem")
	fs.DurationVar(&o.horizon, "horizon", time.Second, "simulated duration")
	fs.DurationVar(&o.epoch, "epoch", 0, "barrier interval for cross-machine signals (default horizon/8)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for the client population and machine jitter")
	fs.DurationVar(&o.margin, "margin", cluster.DefaultOverheadPerPart, "admission inflation per mandatory/wind-up part (0 disables)")
	fs.IntVar(&o.workers, "workers", sweep.DefaultWorkers(), "machines simulated in parallel (the report is identical for any value)")
	fs.StringVar(&o.traceDir, "trace-dir", "", "write one .rtt trace per machine to this directory and report the merged summary")
	fs.StringVar(&o.spec, "spec", "", "workload spec: a JSON file or a builtin name (steady, flash-crash, open-close)")
	fs.StringVar(&o.replay, "replay", "", "replay a recorded .rtk workload trace (its clients, seed, and horizon override the flags)")
	fs.BoolVar(&o.quick, "quick", false, "reduced population and horizon for a fast run (an explicit -clients, -machines or -horizon wins)")
	fs.BoolVar(&o.bench, "bench", false, "also run with -workers 1 and report the parallel speedup to stderr")
	fs.StringVar(&o.out, "o", "", "write the report to this file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var err error
	if o.policy, err = cluster.ParsePolicy(policyName); err != nil {
		return nil, err
	}
	if o.load, err = machine.ParseLoad(loadName); err != nil {
		return nil, err
	}
	if err := sweep.ValidateWorkers(o.workers); err != nil {
		return nil, err
	}
	if o.spec != "" && o.replay != "" {
		return nil, fmt.Errorf("-spec and -replay are mutually exclusive")
	}
	if o.quick {
		// The preset fills only the knobs the command line left unset.
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["clients"] {
			o.clients = 2000
		}
		if !set["machines"] {
			o.machines = 4
		}
		if !set["horizon"] {
			o.horizon = 300 * time.Millisecond
		}
	}
	if o.clients < 1 {
		return nil, fmt.Errorf("-clients %d: want at least 1 client", o.clients)
	}
	if o.machines < 1 {
		return nil, fmt.Errorf("-machines %d: want at least 1 machine", o.machines)
	}
	if o.horizon <= 0 {
		return nil, fmt.Errorf("-horizon %v: want a positive duration", o.horizon)
	}
	if o.cores < 1 {
		return nil, fmt.Errorf("-cores %d: want at least 1 core per machine", o.cores)
	}
	if o.smt < 1 {
		return nil, fmt.Errorf("-smt %d: want at least 1 thread per core", o.smt)
	}
	if o.epoch < 0 {
		return nil, fmt.Errorf("-epoch %v: want 0 (horizon/8) or a positive duration", o.epoch)
	}
	if o.margin < 0 {
		return nil, fmt.Errorf("-margin %v: want 0 (no inflation) or a positive duration", o.margin)
	}
	if o.traceDir != "" && o.cores > trace.MaxCPUs/o.smt {
		return nil, fmt.Errorf("-trace-dir with -cores %d -smt %d: a trace file holds at most %d hardware threads per machine",
			o.cores, o.smt, trace.MaxCPUs)
	}
	return o, nil
}

// config maps the options onto the cluster configuration.
func (o *options) config() cluster.Config {
	margin := o.margin
	if margin == 0 {
		margin = -1 // cluster.Config treats 0 as "default"; negative disables
	}
	return cluster.Config{
		Machines:        o.machines,
		Topology:        machine.Topology{Cores: o.cores, ThreadsPerCore: o.smt},
		Load:            o.load,
		Policy:          o.policy,
		Clients:         o.clients,
		Seed:            o.seed,
		Horizon:         o.horizon,
		Epoch:           o.epoch,
		OverheadPerPart: margin,
		Workers:         o.workers,
		TraceDir:        o.traceDir,
	}
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtseed-cluster:", err)
		os.Exit(2)
	}
	if err := report.Emit(o.out, func(w io.Writer) error { return run(w, os.Stderr, o) }); err != nil {
		fmt.Fprintln(os.Stderr, "rtseed-cluster:", err)
		os.Exit(1)
	}
}

// run executes the cluster and writes the deterministic report to w and
// timing to timing (nil discards it).
func run(w, timing io.Writer, o *options) error {
	if timing == nil {
		timing = io.Discard
	}
	if o.traceDir != "" {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return err
		}
	}
	cfg := o.config()
	if o.spec != "" {
		spec, err := loadSpec(o.spec)
		if err != nil {
			return err
		}
		src, err := workload.Compile(spec, workload.CompileConfig{
			Clients: o.clients, Seed: cfg.Seed, Horizon: cfg.Horizon,
		})
		if err != nil {
			return err
		}
		cfg.Source = src
	}
	if o.replay != "" {
		tr, err := workload.ReadFile(o.replay)
		if err != nil {
			return err
		}
		cfg.Source = workload.NewReplay(tr)
		cfg.Seed = tr.Meta.Seed
		cfg.Horizon = tr.Meta.Horizon
	}

	admitStart := time.Now()
	plan, err := cluster.NewPlan(cfg)
	if err != nil {
		return err
	}
	admitWall := time.Since(admitStart)

	simStart := time.Now()
	res, err := plan.Simulate()
	if err != nil {
		return err
	}
	simWall := time.Since(simStart)

	if err := report1(w, o, plan.Config(), res); err != nil {
		return err
	}

	fmt.Fprintf(timing, "admission: %v for %d clients; simulation: %v, %.2fM simulated events/sec (workers=%d)\n",
		admitWall.Round(time.Millisecond), res.Offered, simWall.Round(time.Millisecond),
		float64(res.Events)/simWall.Seconds()/1e6, o.workers)
	if o.bench {
		cfg1 := cfg
		cfg1.Workers = 1
		cfg1.TraceDir = "" // don't rewrite the trace files on the timing run
		plan1, err := cluster.NewPlan(cfg1)
		if err != nil {
			return err
		}
		seqStart := time.Now()
		if _, err := plan1.Simulate(); err != nil {
			return err
		}
		seq := time.Since(seqStart)
		fmt.Fprintf(timing, "speedup: %.2fx (workers=1: %v, workers=%d: %v)\n",
			float64(seq)/float64(simWall), seq.Round(time.Millisecond), o.workers, simWall.Round(time.Millisecond))
	}
	return nil
}

// report1 writes the deterministic report.
func report1(w io.Writer, o *options, cfg cluster.Config, res *cluster.Result) error {
	fmt.Fprintf(w, "# rtseed-cluster\n\n")
	fmt.Fprintf(w, "fleet: %d machines x (%d cores x %d SMT), policy %s, load %s\n",
		cfg.Machines, cfg.Topology.Cores, cfg.Topology.ThreadsPerCore, cfg.Policy, cfg.Load)
	fmt.Fprintf(w, "offered: %d clients (workload %s), seed %d, horizon %v, epoch %v, margin %v/part\n\n",
		cfg.Clients, res.Workload, cfg.Seed, cfg.Horizon, cfg.Epoch, cfg.OverheadPerPart)

	fmt.Fprintf(w, "## admission\n\n```\n")
	adm := report.NewTable("class", "offered", "admitted", "ratio", "tasks")
	for class, s := range res.PerClass {
		adm.AddRow(workload.Class(class).String(), s.Offered, s.Admitted, s.AdmissionRatio(), s.Tasks)
	}
	adm.AddRow("total", res.Offered, res.Admitted, res.AdmissionRatio(), res.AdmittedTasks)
	fmt.Fprintf(w, "%s```\n\n", adm)

	fmt.Fprintf(w, "## placement (%d/%d machines used)\n\n```\n", res.MachinesUsed, cfg.Machines)
	mt := report.NewTable("machine", "clients", "tasks", "adm-util", "busy", "events", "jobs", "misses")
	for _, m := range res.Machines {
		mt.AddRow(fmt.Sprintf("m%03d", m.Machine), m.Clients, m.Tasks, m.Utilization, m.Busy, m.Events, m.Jobs, m.Misses)
	}
	fmt.Fprintf(w, "%s```\n\n", mt)

	fmt.Fprintf(w, "## service by class\n\n```\n")
	svc := report.NewTable("class", "jobs", "misses", "miss-rate")
	for class, s := range res.PerClass {
		svc.AddRow(workload.Class(class).String(), s.Jobs, s.Misses, s.MissRate())
	}
	svc.AddRow("total", res.Jobs, res.Misses, missRate(res.Misses, res.Jobs))
	fmt.Fprintf(w, "%s```\n\n", svc)

	if len(res.Windows) > 0 {
		fmt.Fprintf(w, "## service by window\n\n```\n")
		wt := report.NewTable("window", "span", "rate", "offered", "admitted", "jobs", "misses", "miss-rate")
		for _, win := range res.Windows {
			wt.AddRow(win.Name, fmt.Sprintf("%v-%v", win.Start, win.End), win.Rate,
				win.Offered, win.Admitted, win.Jobs, win.Misses, win.MissRate())
		}
		fmt.Fprintf(w, "%s```\n\n", wt)
	}

	fmt.Fprintf(w, "## epochs\n\n```\n")
	et := report.NewTable("end", "jobs", "misses", "mean-busy", "max-busy")
	for _, e := range res.Epochs {
		et.AddRow(e.End.String(), e.Jobs, e.Misses, e.MeanBusy, e.MaxBusy)
	}
	fmt.Fprintf(w, "%s```\n\n", et)

	fmt.Fprintf(w, "simulated events: %d\n", res.Events)

	if o.traceDir != "" {
		merged, err := mergedSummary(o.traceDir, cfg.Machines)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n## merged trace summary (%s)\n\n```\n", filepath.ToSlash(o.traceDir))
		fmt.Fprintf(w, "files %d  tasks %d  jobs %d  misses %d  span %v  lost %d\n",
			merged.Files, merged.Tasks, merged.Jobs, merged.Misses, merged.Span, merged.Lost)
		fmt.Fprintf(w, "```\n")
	}
	return nil
}

func missRate(misses, jobs int) float64 {
	if jobs == 0 {
		return 0
	}
	return float64(misses) / float64(jobs)
}

// loadSpec resolves -spec: a builtin name first, else a JSON spec file.
func loadSpec(arg string) (workload.Spec, error) {
	if spec, ok := workload.BuiltinSpec(arg); ok {
		return spec, nil
	}
	f, err := os.Open(arg)
	if err != nil {
		return workload.Spec{}, fmt.Errorf("-spec %q is neither a builtin name (%v) nor a readable file: %w",
			arg, workload.BuiltinSpecNames(), err)
	}
	defer f.Close()
	return workload.ParseSpec(f)
}

// mergedSummary reads the per-machine trace files back and folds their
// analyses into one fleet summary — the deterministic cross-check that the
// traces agree with the simulation's own counters.
func mergedSummary(dir string, machines int) (trace.MergedSummary, error) {
	var analyses []*trace.Analysis
	for i := 0; i < machines; i++ {
		tr, err := trace.ReadFile(filepath.Join(dir, cluster.TraceFileName(i)))
		if err != nil {
			return trace.MergedSummary{}, err
		}
		analyses = append(analyses, trace.Analyze(tr))
	}
	return trace.Merge(analyses...), nil
}
