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
//	           [-policy one|two|all] [-load none|cpu|cpumem]
package main

import (
	"flag"
	"fmt"
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

func main() {
	spec := flag.String("tasks", "tau1:m=250ms,w=250ms,T=1s,o=1s,np=8", "task set spec")
	schedName := flag.String("sched", "prmwp", "scheduler: prmwp or general")
	horizon := flag.Duration("horizon", 10*time.Second, "simulation horizon")
	policy := flag.String("policy", "one", "assignment policy: one, two, all")
	load := flag.String("load", "none", "background load: none, cpu, cpumem")
	trace := flag.Bool("trace", false, "print the Fig. 3 remaining-time trace of the first task's first job")
	gantt := flag.Bool("gantt", false, "print an ASCII Gantt chart of the first period")
	margin := flag.Duration("margin", 20*time.Millisecond, "overhead margin subtracted from optional deadlines")
	flag.Parse()
	if err := run(*spec, *schedName, *policy, *load, *horizon, *margin, *trace, *gantt); err != nil {
		fmt.Fprintln(os.Stderr, "rtseed-sim:", err)
		os.Exit(1)
	}
}

func parsePolicy(s string) (assign.Policy, error) {
	switch s {
	case "one":
		return assign.OneByOne, nil
	case "two":
		return assign.TwoByTwo, nil
	case "all":
		return assign.AllByAll, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (want one, two, all)", s)
	}
}

func parseLoad(s string) (machine.Load, error) {
	switch s {
	case "none":
		return machine.NoLoad, nil
	case "cpu":
		return machine.CPULoad, nil
	case "cpumem":
		return machine.CPUMemoryLoad, nil
	default:
		return 0, fmt.Errorf("unknown load %q (want none, cpu, cpumem)", s)
	}
}

func run(spec, schedName, policyName, loadName string, horizon, margin time.Duration, trace, gantt bool) error {
	set, err := task.ParseSpec(spec)
	if err != nil {
		return err
	}
	pol, err := parsePolicy(policyName)
	if err != nil {
		return err
	}
	load, err := parseLoad(loadName)
	if err != nil {
		return err
	}
	mach, err := machine.New(machine.XeonPhi3120A(), load, machine.DefaultCostModel(), 0x51e)
	if err != nil {
		return err
	}
	k := kernel.New(engine.New(), mach)
	rec := sched.NewRecorder(k)

	switch schedName {
	case "prmwp":
		return runPRMWP(k, rec, set, pol, horizon, margin, trace, gantt)
	case "general":
		return runGeneral(k, rec, set, horizon, trace)
	default:
		return fmt.Errorf("unknown scheduler %q (want prmwp or general)", schedName)
	}
}

func runPRMWP(k *kernel.Kernel, rec *sched.Recorder, set *task.Set,
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

	fmt.Printf("P-RMWP over %v, policy %v:\n", horizon, pol)
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
	fmt.Println(tbl)

	if trace {
		name := names[0]
		p := sys.Processes[name]
		recs := p.Records()
		if len(recs) == 0 {
			return fmt.Errorf("-trace: no job of %s finished within -horizon %v", name, horizon)
		}
		tk := recs[0]
		fmt.Printf("Fig. 3 (semi-fixed-priority): R(t) of %s, job 0 — mandatory then wind-up phase\n", name)
		var taskDef task.Task
		for _, t := range set.Tasks {
			if t.Name == name {
				taskDef = t
			}
		}
		mand := rec.RemainingTime(p.MandatoryThread(), engine.At(tk.Release), engine.At(tk.WindupStart), taskDef.Mandatory)
		printTrace(mand)
		wind := rec.RemainingTime(p.MandatoryThread(), engine.At(tk.WindupStart), engine.At(tk.Deadline), taskDef.Windup)
		printTrace(wind)
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
		fmt.Printf("Gantt chart of %s, first period:\n", name)
		fmt.Println(sched.Gantt(rec, threads, engine.At(0), engine.At(period), 80))
	}
	return nil
}

func runGeneral(k *kernel.Kernel, rec *sched.Recorder, set *task.Set, horizon time.Duration, trace bool) error {
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

	fmt.Printf("General (Liu & Layland) scheduling over %v:\n", horizon)
	tbl := report.NewTable("task", "jobs", "misses")
	for _, g := range procs {
		st := g.Stats()
		tbl.AddRow(g.Thread().Name(), st.Jobs, st.DeadlineMisses)
	}
	fmt.Println(tbl)

	if trace {
		g := procs[0]
		tk := ordered[0]
		fmt.Printf("Fig. 3 (general scheduling): R(t) of %s, job 0 — one m+w block\n", tk.Name)
		printTrace(rec.RemainingTime(g.Thread(), engine.At(0), engine.At(tk.Period), tk.WCET()))
	}
	return nil
}

func printTrace(points []sched.TracePoint) {
	tbl := report.NewTable("t", "R(t)")
	for _, p := range points {
		tbl.AddRow(p.T, p.R)
	}
	fmt.Println(tbl)
}
