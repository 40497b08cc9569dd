// Command rtseed-repro regenerates the full reproduction in one run: every
// figure and table of the paper's evaluation plus the repository's
// extension experiments, written as a markdown report (stdout or -o FILE).
//
// Usage:
//
//	rtseed-repro [-jobs N] [-quick] [-o report.md] [-workers N] [-trace FILE]
//
// -trace additionally records a fixed P-RMWP scenario through the tracing
// subsystem and writes the binary trace to FILE for rtseed-trace; the bytes
// are a pure function of the scenario, identical for any -workers value.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"rtseed/internal/analysis"
	"rtseed/internal/assign"
	"rtseed/internal/core"
	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/overhead"
	"rtseed/internal/partition"
	"rtseed/internal/prof"
	"rtseed/internal/report"
	"rtseed/internal/sched"
	"rtseed/internal/sweep"
	"rtseed/internal/task"
	"rtseed/internal/trace"
)

// now is the wall-clock source for the report footer. Everything above the
// footer is a deterministic function of the flags; tests substitute a fixed
// clock here so even the footer is reproducible.
var now = time.Now

// options is the parsed command line.
type options struct {
	jobs       int
	quick      bool
	out        string
	workers    int
	cpuprofile string
	memprofile string
	trace      string
}

// parseFlags registers the command's flags on fs, parses args, and validates
// the result. The flag set is injected so tests can parse without touching
// the process-global flag.CommandLine.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.IntVar(&o.jobs, "jobs", 100, "jobs per overhead measurement")
	fs.BoolVar(&o.quick, "quick", false, "reduced sweeps for a fast run")
	fs.StringVar(&o.out, "o", "", "write the report to this file (default stdout)")
	fs.IntVar(&o.workers, "workers", sweep.DefaultWorkers(), "sweep cells simulated in parallel (the report is identical for any value)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile taken after the run to this file")
	fs.StringVar(&o.trace, "trace", "", "write a binary trace of a fixed P-RMWP scenario to this file (analyze with rtseed-trace)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := sweep.ValidateWorkers(o.workers); err != nil {
		return nil, err
	}
	if o.jobs < 1 {
		return nil, fmt.Errorf("-jobs %d: want at least 1 job per measurement", o.jobs)
	}
	return o, nil
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtseed-repro:", err)
		os.Exit(2)
	}
	stop, err := prof.Start(o.cpuprofile, o.memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtseed-repro:", err)
		os.Exit(1)
	}
	err = report.Emit(o.out, func(w io.Writer) error { return run(w, o.jobs, o.quick, o.workers) })
	if err == nil && o.trace != "" {
		err = writeTraceFile(o.trace)
	}
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtseed-repro:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, jobs int, quick bool, workers int) error {
	started := now()
	sweepCfg := overhead.SweepConfig{Jobs: jobs, Workers: workers}
	if quick {
		sweepCfg = sweepCfg.Quick()
	}
	fmt.Fprintf(w, "# RT-Seed reproduction report\n\n")
	fmt.Fprintf(w, "Simulated Xeon Phi 3120A (57 cores x 4 HW threads); %d jobs per measurement.\n\n", sweepCfg.Jobs)

	if err := sectionFig8(w); err != nil {
		return err
	}
	if err := sectionFig3(w); err != nil {
		return err
	}
	if err := sectionOverheads(w, sweepCfg); err != nil {
		return err
	}
	if err := sectionTableI(w); err != nil {
		return err
	}
	if err := sectionAcceptance(w, quick, workers); err != nil {
		return err
	}
	writeFooter(w, now().Sub(started))
	return nil
}

// writeTraceFile runs the traced scenario — the two-task P-RMWP set whose
// cross-task coupling produces deadline misses, so every analyzer section
// has material — and writes the binary trace to path. The scenario is a
// single-threaded simulation with zero cost jitter: its trace bytes are a
// pure function of this code, independent of -workers and of wall clock.
func writeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	model := machine.DefaultCostModel()
	model.JitterFrac = 0
	mach, err := machine.New(machine.Topology{Cores: 8, ThreadsPerCore: 4}, machine.NoLoad, model, 3)
	if err != nil {
		f.Close()
		return err
	}
	k := kernel.New(engine.New(), mach)
	tr := trace.New(trace.Config{
		CPUs:     mach.Topology().NumHWThreads(),
		Capacity: 1024,
		Sink:     f,
	})
	k.SetTrace(tr)
	set := task.MustNewSet(
		task.Uniform("fast", 5*time.Millisecond, 5*time.Millisecond, 500*time.Millisecond, 2, 50*time.Millisecond),
		task.Uniform("slow", 10*time.Millisecond, 10*time.Millisecond, 500*time.Millisecond, 2, 100*time.Millisecond),
	)
	sys, err := sched.NewPRMWP(k, sched.PRMWPConfig{
		Set:            set,
		Horizon:        300 * time.Millisecond,
		Policy:         assign.OneByOne,
		Heuristic:      partition.FirstFit,
		OverheadMargin: 3 * time.Millisecond,
	})
	if err != nil {
		f.Close()
		return err
	}
	sys.Start()
	k.Run()
	if err := tr.Close(k.ThreadInfos()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeFooter appends the elapsed-time trailer to the report.
func writeFooter(w io.Writer, elapsed time.Duration) {
	fmt.Fprintf(w, "\nGenerated in %v.\n", elapsed.Round(time.Millisecond))
}

func sectionFig8(w io.Writer) error {
	fmt.Fprintf(w, "## Fig. 8 — assignment policies (np=171)\n\n```\n")
	topo := machine.XeonPhi3120A()
	tbl := report.NewTable("policy", "cores used", "occupancy")
	for _, pol := range assign.Policies() {
		hws, err := assign.HWThreads(topo, pol, 171)
		if err != nil {
			return err
		}
		hist := assign.CoreHistogram(topo, hws)
		runs := ""
		for i := 0; i < len(hist); {
			j := i
			for j < len(hist) && hist[j] == hist[i] {
				j++
			}
			runs += fmt.Sprintf("%dx%d ", hist[i], j-i)
			i = j
		}
		tbl.AddRow(pol.String(), assign.DistinctCores(topo, hws), runs)
	}
	fmt.Fprintf(w, "%s```\n\n", tbl)
	return nil
}

func sectionFig3(w io.Writer) error {
	fmt.Fprintf(w, "## Fig. 3 — general vs. semi-fixed-priority\n\n```\n")
	// General: one m+w block.
	mach := machine.MustNew(machine.XeonPhi3120A(), machine.NoLoad, machine.DefaultCostModel(), 3)
	k := kernel.New(engine.New(), mach)
	tk := task.Uniform("tau1", 250*time.Millisecond, 150*time.Millisecond, 2*time.Second, 1, time.Second)
	cpus, err := assign.HWThreads(mach.Topology(), assign.OneByOne, 1)
	if err != nil {
		return err
	}
	p, err := core.NewProcess(k, core.Config{
		Task: tk, MandatoryPriority: 90, MandatoryCPU: 0,
		OptionalCPUs: cpus, OptionalDeadline: 750 * time.Millisecond, Jobs: 1,
	})
	if err != nil {
		return err
	}
	p.Start()
	k.Run()
	rec := p.Records()[0]
	fmt.Fprintf(w, "semi-fixed: mandatory [%v..%v], optional until OD=750ms, wind-up [%v..%v]\n",
		rec.MandatoryStart, rec.MandatoryStart+tk.Mandatory, rec.WindupStart, rec.Finish)
	fmt.Fprintf(w, "general:    one m+w block [release..m+w] — see cmd/rtseed-sim -sched general -trace\n")
	fmt.Fprintf(w, "```\n\n")
	return nil
}

func sectionOverheads(w io.Writer, cfg overhead.SweepConfig) error {
	figs, err := overhead.SweepAll(cfg)
	if err != nil {
		return err
	}
	for _, load := range machine.Loads() {
		for _, kind := range overhead.Kinds() {
			fd := overhead.ByKindLoad(figs, kind, load)
			fmt.Fprintf(w, "## Figure %d (%s) — %s\n\n```\n", kind.Figure(), kind, load)
			tbl := report.NewTable("np", "One by One", "Two by Two", "All by All")
			for i, pt := range fd.Series[0].Points {
				row := []any{pt.NumParts}
				for _, s := range fd.Series {
					row = append(row, s.Points[i].Mean)
				}
				tbl.AddRow(row...)
			}
			fmt.Fprintf(w, "%s```\n\n", tbl)
		}
	}
	return nil
}

func sectionTableI(w io.Writer) error {
	fmt.Fprintf(w, "## Table I — termination mechanisms\n\n```\n")
	tbl := report.NewTable("implementation", "any-time", "mask restore", "behaviour over 4 jobs")
	for _, mech := range []core.Termination{
		core.SigjmpTermination{},
		core.PeriodicCheckTermination{Period: 7 * time.Millisecond},
		core.TryCatchTermination{},
	} {
		mach := machine.MustNew(machine.Topology{Cores: 8, ThreadsPerCore: 4}, machine.NoLoad, machine.DefaultCostModel(), 3)
		k := kernel.New(engine.New(), mach)
		tk := task.Uniform("t", 20*time.Millisecond, 20*time.Millisecond, time.Second, 2, 100*time.Millisecond)
		cpus, err := assign.HWThreads(mach.Topology(), assign.OneByOne, 2)
		if err != nil {
			return err
		}
		p, err := core.NewProcess(k, core.Config{
			Task: tk, MandatoryPriority: 90, MandatoryCPU: 0,
			OptionalCPUs: cpus, OptionalDeadline: 70 * time.Millisecond,
			Jobs: 4, Termination: mech,
		})
		if err != nil {
			return err
		}
		p.Start()
		k.RunUntil(engine.At(10 * time.Second))
		st := p.Stats()
		behaviour := fmt.Sprintf("%d terminated, %d completed, %d discarded, %d misses",
			st.TerminatedParts, st.CompletedParts, st.DiscardedParts, st.DeadlineMisses)
		tbl.AddRow(mech.Name(), mech.AnyTime(), mech.RestoresSignalMask(), behaviour)
	}
	fmt.Fprintf(w, "%s```\n\n", tbl)
	return nil
}

func sectionAcceptance(w io.Writer, quick bool, workers int) error {
	sets := 200
	if quick {
		sets = 40
	}
	points, err := analysis.AcceptanceRatio(analysis.AcceptanceConfig{
		N:            6,
		SetsPerPoint: sets,
		Utilizations: []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
		Seed:         0xacce,
		Workers:      workers,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Extension — acceptance ratio (the schedulability price of wind-up guarantees)\n\n```\n")
	tbl := report.NewTable("total U", "RMWP", "general RM", "LL bound")
	for _, p := range points {
		tbl.AddRow(fmt.Sprintf("%.1f", p.Utilization), p.RMWP, p.GeneralRM, p.LLBound)
	}
	fmt.Fprintf(w, "%s```\n", tbl)
	return nil
}
