// Command rtseed-analyze runs the schedulability analysis of a task set:
// RMWP optional deadlines and response times (the reconstruction of
// Theorem 2 of the paper's reference [5]), the Liu & Layland utilization
// bound, the RM-US highest-priority separation for the HPQ level, breakdown
// utilization, and a partitioned assignment onto M processors.
//
// Usage:
//
//	rtseed-analyze -tasks "tau1:m=250ms,w=250ms,T=1s,o=1s,np=8" [-m 57]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"rtseed/internal/analysis"
	"rtseed/internal/partition"
	"rtseed/internal/report"
	"rtseed/internal/sweep"
	"rtseed/internal/task"
	"rtseed/internal/workload"
)

// options is the parsed command line.
type options struct {
	spec       string
	m          int
	taskFile   string
	accept     bool
	acceptN    int
	acceptSets int
	acceptSpec string
	workers    int
}

// parseFlags registers the command's flags on fs, parses args, and validates
// the result. The flag set is injected so tests can parse without touching
// the process-global flag.CommandLine.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.spec, "tasks", "tau1:m=250ms,w=250ms,T=1s,o=1s,np=8",
		"task set spec: name:m=<dur>,w=<dur>,T=<dur>[,o=<dur>,np=<int>]; ...")
	fs.IntVar(&o.m, "m", 57, "number of processors (cores) for RM-US and partitioning")
	fs.StringVar(&o.taskFile, "taskfile", "", "load the task set from a JSON file instead of -tasks")
	fs.BoolVar(&o.accept, "accept", false, "run an acceptance-ratio sweep over random task sets instead")
	fs.IntVar(&o.acceptN, "accept-n", 6, "tasks per random set for -accept")
	fs.IntVar(&o.acceptSets, "accept-sets", 200, "random sets per utilization point for -accept")
	fs.StringVar(&o.acceptSpec, "accept-spec", "", "draw -accept task sets from this workload spec (a builtin name or a JSON file) instead of the uniform default")
	fs.IntVar(&o.workers, "workers", sweep.DefaultWorkers(), "utilization points evaluated in parallel for -accept (results are identical for any value)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := sweep.ValidateWorkers(o.workers); err != nil {
		return nil, err
	}
	if o.m < 1 {
		return nil, fmt.Errorf("-m %d: want at least 1 processor", o.m)
	}
	if o.acceptN < 1 {
		return nil, fmt.Errorf("-accept-n %d: want at least 1 task per set", o.acceptN)
	}
	if o.acceptSets < 1 {
		return nil, fmt.Errorf("-accept-sets %d: want at least 1 set per point", o.acceptSets)
	}
	return o, nil
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtseed-analyze:", err)
		os.Exit(2)
	}
	if err := report.Emit("", func(w io.Writer) error { return run(w, o) }); err != nil {
		fmt.Fprintln(os.Stderr, "rtseed-analyze:", err)
		os.Exit(1)
	}
}

// run writes the report the options select to w: the acceptance sweep with
// -accept, else the analysis of the task set.
func run(w io.Writer, o *options) error {
	if o.accept {
		return runAcceptance(w, o.acceptN, o.acceptSets, o.workers, o.acceptSpec)
	}
	return runWithSource(w, o.spec, o.taskFile, o.m)
}

// runAcceptance sweeps random task sets over total utilization and compares
// the RMWP test against general-RM exact analysis and the Liu & Layland
// bound — the cost of guaranteeing wind-up parts.
func runAcceptance(w io.Writer, n, sets, workers int, specArg string) error {
	var utils []float64
	for u := 0.1; u <= 1.0001; u += 0.1 {
		utils = append(utils, u)
	}
	cfg := analysis.AcceptanceConfig{
		N:            n,
		SetsPerPoint: sets,
		Utilizations: utils,
		Seed:         0xacce,
		Workers:      workers,
	}
	genName := "UUniFast"
	if specArg != "" {
		spec, err := loadWorkloadSpec(specArg)
		if err != nil {
			return err
		}
		cfg.Spec = &spec
		genName = fmt.Sprintf("workload spec %s", spec.Name)
	}
	points, err := analysis.AcceptanceRatio(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Acceptance ratio over %d random sets per point (n=%d, %s):\n", sets, n, genName)
	tbl := report.NewTable("ΣU", "RMWP", "general RM (exact)", "Liu&Layland bound")
	for _, p := range points {
		tbl.AddRow(fmt.Sprintf("%.1f", p.Utilization), p.RMWP, p.GeneralRM, p.LLBound)
	}
	fmt.Fprintln(w, tbl)
	return nil
}

// runWithSource resolves the task set from a file or an inline spec and
// writes its analysis to w.
func runWithSource(w io.Writer, spec, taskFile string, m int) error {
	if taskFile != "" {
		set, err := task.LoadFile(taskFile)
		if err != nil {
			return err
		}
		return analyze(w, set, m)
	}
	set, err := task.ParseSpec(spec)
	if err != nil {
		return err
	}
	return analyze(w, set, m)
}

func analyze(w io.Writer, set *task.Set, m int) error {

	fmt.Fprintf(w, "Task set: n=%d, ΣU=%.3f, system U on %d processors=%.3f, hyperperiod=%v\n",
		set.Len(), set.Utilization(), m, set.SystemUtilization(m), set.Hyperperiod())
	fmt.Fprintf(w, "Liu&Layland bound n(2^(1/n)-1) = %.4f -> utilization test %s\n",
		analysis.LiuLaylandBound(set.Len()), pass(analysis.UtilizationSchedulable(set)))
	fmt.Fprintf(w, "RM-US threshold M/(3M-2) = %.4f (tasks above it take the HPQ level 99)\n\n",
		analysis.RMUSThreshold(m))

	results, rerr := analysis.RMWP(set)
	tbl := report.NewTable("task", "U", "np", "OD_i", "R^m", "R^w", "HPQ?", "schedulable")
	for _, r := range results {
		tbl.AddRow(r.Task.Name, r.Task.Utilization(), r.Task.NumOptional(),
			r.OptionalDeadline, r.MandatoryResponse, r.WindupResponse,
			analysis.NeedsHighestPriority(r.Task, m), r.Schedulable)
	}
	fmt.Fprintln(w, "RMWP analysis (uniprocessor, RM order):")
	fmt.Fprintln(w, tbl)
	if rerr != nil && !errors.Is(rerr, analysis.ErrUnschedulable) {
		return rerr
	}

	fmt.Fprintf(w, "Breakdown utilization scale: %.3f\n\n", analysis.BreakdownUtilization(set, 0.001))

	if rerr == nil {
		sens, err := analysis.Sensitivities(set)
		if err == nil {
			fmt.Fprintln(w, "Per-task sensitivity (largest value keeping the set RMWP-schedulable):")
			stbl := report.NewTable("task", "max m", "m slack", "max w", "w slack")
			for _, se := range sens {
				stbl.AddRow(se.Task, se.MaxMandatory, se.MandatorySlack, se.MaxWindup, se.WindupSlack)
			}
			fmt.Fprintln(w, stbl)
		}
	}

	asg, err := partition.Partition(set, m, partition.FirstFit)
	if err != nil {
		fmt.Fprintf(w, "P-RMWP partitioning onto %d processors (first-fit decreasing): FAILED: %v\n", m, err)
		return nil
	}
	fmt.Fprintf(w, "P-RMWP partitioning onto %d processors (first-fit decreasing): %d used\n",
		m, asg.UsedProcessors())
	ptbl := report.NewTable("processor", "tasks", "U")
	for p, tasks := range asg.PerProcessor {
		if len(tasks) == 0 {
			continue
		}
		names := ""
		for i, t := range tasks {
			if i > 0 {
				names += ","
			}
			names += t.Name
		}
		ptbl.AddRow(p, names, asg.Utilization(p))
	}
	fmt.Fprintln(w, ptbl)
	return nil
}

func pass(ok bool) string {
	if ok {
		return "PASS"
	}
	return "inconclusive (run exact RMWP analysis below)"
}

// loadWorkloadSpec resolves a workload spec from a builtin name or a JSON
// file path.
func loadWorkloadSpec(arg string) (workload.Spec, error) {
	if spec, ok := workload.BuiltinSpec(arg); ok {
		return spec, nil
	}
	f, err := os.Open(arg)
	if err != nil {
		return workload.Spec{}, err
	}
	defer f.Close()
	return workload.ParseSpec(f)
}
