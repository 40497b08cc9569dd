// Command rtseed-sim runs a task set on the simulated kernel under either
// general scheduling (the Liu & Layland baseline) or P-RMWP semi-fixed-
// priority scheduling, and reports per-task statistics. With -trace it also
// prints the remaining-execution-time curve R_1(t) of the first job — the
// paper's Fig. 3 comparison.
//
// Usage:
//
//	rtseed-sim -tasks "tau1:m=250ms,w=250ms,T=1s,o=1s,np=8" \
//	           -sched prmwp|general -horizon 10s [-trace] \
//	           [-policy one|two|all] [-load none|cpu|cpumem] [-margin D]
//
// Flag errors exit 2: an unknown -sched, -policy or -load, -horizon <= 0,
// and a negative -margin.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"rtseed/internal/assign"
	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/report"
	"rtseed/internal/sched"
	"rtseed/internal/task"
)

// options is the parsed command line.
type options struct {
	spec    string
	sched   string
	policy  assign.Policy
	load    machine.Load
	horizon time.Duration
	margin  time.Duration
	trace   bool
	gantt   bool
}

// parseFlags registers the command's flags on fs, parses args, and
// validates the result. The flag set is injected so tests can parse without
// touching the process-global flag.CommandLine.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	var policyName, loadName string
	fs.StringVar(&o.spec, "tasks", "tau1:m=250ms,w=250ms,T=1s,o=1s,np=8", "task set spec")
	fs.StringVar(&o.sched, "sched", "prmwp", "scheduler: prmwp or general")
	fs.DurationVar(&o.horizon, "horizon", 10*time.Second, "simulation horizon")
	fs.StringVar(&policyName, "policy", "one", "assignment policy: one, two, all")
	fs.StringVar(&loadName, "load", "none", "background load: none, cpu, cpumem")
	fs.BoolVar(&o.trace, "trace", false, "print the Fig. 3 remaining-time trace of the first task's first job")
	fs.BoolVar(&o.gantt, "gantt", false, "print an ASCII Gantt chart of the first period")
	fs.DurationVar(&o.margin, "margin", 20*time.Millisecond, "overhead margin subtracted from optional deadlines")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var err error
	if o.policy, err = assign.ParsePolicy(policyName); err != nil {
		return nil, err
	}
	if o.load, err = machine.ParseLoad(loadName); err != nil {
		return nil, err
	}
	if o.sched != "prmwp" && o.sched != "general" {
		return nil, fmt.Errorf("-sched %q: want prmwp or general", o.sched)
	}
	if o.horizon <= 0 {
		return nil, fmt.Errorf("-horizon %v: want a positive duration", o.horizon)
	}
	if o.margin < 0 {
		return nil, fmt.Errorf("-margin %v: want a non-negative overhead margin", o.margin)
	}
	return o, nil
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtseed-sim:", err)
		os.Exit(2)
	}
	if err := report.Emit("", func(w io.Writer) error { return run(w, o) }); err != nil {
		fmt.Fprintln(os.Stderr, "rtseed-sim:", err)
		os.Exit(1)
	}
}

// run simulates the task set and writes the report to w.
func run(w io.Writer, o *options) error {
	set, err := task.ParseSpec(o.spec)
	if err != nil {
		return err
	}
	mach, err := machine.New(machine.XeonPhi3120A(), o.load, machine.DefaultCostModel(), 0x51e)
	if err != nil {
		return err
	}
	k := kernel.New(engine.New(), mach)
	rec := sched.NewRecorder(k)

	if o.sched == "general" {
		return runGeneral(w, k, rec, set, o.horizon, o.trace)
	}
	return runPRMWP(w, k, rec, set, o.policy, o.horizon, o.margin, o.trace, o.gantt)
}

func runPRMWP(w io.Writer, k *kernel.Kernel, rec *sched.Recorder, set *task.Set,
	pol assign.Policy, horizon, margin time.Duration, trace, gantt bool) error {
	sys, err := sched.NewPRMWP(k, sched.PRMWPConfig{
		Set:            set,
		Horizon:        horizon,
		Policy:         pol,
		OverheadMargin: margin,
	})
	if err != nil {
		return err
	}
	sys.Start()
	k.RunUntil(engine.At(horizon))

	fmt.Fprintf(w, "P-RMWP over %v, policy %v:\n", horizon, pol)
	tbl := report.NewTable("task", "jobs", "misses", "QoS", "completed", "terminated", "discarded")
	names := make([]string, 0, len(sys.Processes))
	for name := range sys.Processes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := sys.Processes[name].Stats()
		tbl.AddRow(name, st.Jobs, st.DeadlineMisses, st.MeanQoS,
			st.CompletedParts, st.TerminatedParts, st.DiscardedParts)
	}
	fmt.Fprintln(w, tbl)

	if trace {
		name := names[0]
		p := sys.Processes[name]
		recs := p.Records()
		if len(recs) == 0 {
			return fmt.Errorf("-trace: no job of %s finished within -horizon %v", name, horizon)
		}
		tk := recs[0]
		fmt.Fprintf(w, "Fig. 3 (semi-fixed-priority): R(t) of %s, job 0 — mandatory then wind-up phase\n", name)
		var taskDef task.Task
		for _, t := range set.Tasks {
			if t.Name == name {
				taskDef = t
			}
		}
		mand := rec.RemainingTime(p.MandatoryThread(), engine.At(tk.Release), engine.At(tk.WindupStart), taskDef.Mandatory)
		printTrace(w, mand)
		wind := rec.RemainingTime(p.MandatoryThread(), engine.At(tk.WindupStart), engine.At(tk.Deadline), taskDef.Windup)
		printTrace(w, wind)
	}
	if gantt {
		name := names[0]
		p := sys.Processes[name]
		threads := append([]*kernel.Thread{p.MandatoryThread()}, p.OptionalThreads()...)
		if len(threads) > 9 {
			threads = threads[:9] // keep the chart readable
		}
		var period time.Duration
		for _, t := range set.Tasks {
			if t.Name == name {
				period = t.Period
			}
		}
		fmt.Fprintf(w, "Gantt chart of %s, first period:\n", name)
		fmt.Fprintln(w, sched.Gantt(rec, threads, engine.At(0), engine.At(period), 80))
	}
	return nil
}

func runGeneral(w io.Writer, k *kernel.Kernel, rec *sched.Recorder, set *task.Set, horizon time.Duration, trace bool) error {
	ordered := set.SortedByRM()
	procs := make([]*sched.GeneralProcess, len(ordered))
	for i, tk := range ordered {
		jobs := int(horizon / tk.Period)
		if jobs < 1 {
			jobs = 1
		}
		g, err := sched.NewGeneralProcess(k, tk, 98-i, 0, jobs)
		if err != nil {
			return err
		}
		procs[i] = g
	}
	for _, g := range procs {
		g.Start()
	}
	k.RunUntil(engine.At(horizon))

	fmt.Fprintf(w, "General (Liu & Layland) scheduling over %v:\n", horizon)
	tbl := report.NewTable("task", "jobs", "misses")
	for _, g := range procs {
		st := g.Stats()
		tbl.AddRow(g.Thread().Name(), st.Jobs, st.DeadlineMisses)
	}
	fmt.Fprintln(w, tbl)

	if trace {
		g := procs[0]
		tk := ordered[0]
		fmt.Fprintf(w, "Fig. 3 (general scheduling): R(t) of %s, job 0 — one m+w block\n", tk.Name)
		printTrace(w, rec.RemainingTime(g.Thread(), engine.At(0), engine.At(tk.Period), tk.WCET()))
	}
	return nil
}

func printTrace(w io.Writer, points []sched.TracePoint) {
	tbl := report.NewTable("t", "R(t)")
	for _, p := range points {
		tbl.AddRow(p.T, p.R)
	}
	fmt.Fprintln(w, tbl)
}
