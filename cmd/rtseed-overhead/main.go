// Command rtseed-overhead regenerates the paper's overhead evaluation
// (Figs. 10-13): the four overheads of the parallel-extended imprecise
// computation model swept over the number of parallel optional parts, the
// three hardware-thread assignment policies, and the three background
// loads, on the simulated Xeon Phi 3120A.
//
// Usage:
//
//	rtseed-overhead [-fig 10|11|12|13|0] [-jobs N] [-quick] [-workers N]
//
// -fig 0 (default) prints every figure. -quick reduces the sweep to three
// part counts and at most 10 jobs per measurement for a fast sanity run. -workers bounds how many sweep cells are
// simulated in parallel (default GOMAXPROCS); every cell is an independent
// deterministic simulation, so the figures are identical for any value.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rtseed/internal/assign"
	"rtseed/internal/machine"
	"rtseed/internal/overhead"
	"rtseed/internal/prof"
	"rtseed/internal/report"
	"rtseed/internal/sweep"
)

// options is the parsed command line.
type options struct {
	fig        int
	jobs       int
	quick      bool
	seed       uint64
	csvPath    string
	dist       bool
	workers    int
	cpuprofile string
	memprofile string
}

// parseFlags registers the command's flags on fs, parses args, and validates
// the result. The flag set is injected so tests can parse without touching
// the process-global flag.CommandLine.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.IntVar(&o.fig, "fig", 0, "figure to regenerate (10-13; 0 = all)")
	fs.IntVar(&o.jobs, "jobs", 100, "jobs per measurement (the paper uses 100)")
	fs.BoolVar(&o.quick, "quick", false, "reduced sweep for a fast run")
	fs.Uint64Var(&o.seed, "seed", 0, "machine jitter seed (0 = default)")
	fs.StringVar(&o.csvPath, "csv", "", "also write the sweep as CSV to this file")
	fs.BoolVar(&o.dist, "dist", false, "print overhead distributions (p50/p95/p99) at np=228 instead of the sweep")
	fs.IntVar(&o.workers, "workers", sweep.DefaultWorkers(), "sweep cells simulated in parallel (results are identical for any value)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile taken after the run to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := sweep.ValidateWorkers(o.workers); err != nil {
		return nil, err
	}
	if o.jobs < 1 {
		return nil, fmt.Errorf("-jobs %d: want at least 1 job per measurement", o.jobs)
	}
	if o.fig != 0 && (o.fig < 10 || o.fig > 13) {
		return nil, fmt.Errorf("-fig %d: want 10-13, or 0 for every figure", o.fig)
	}
	return o, nil
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtseed-overhead:", err)
		os.Exit(2)
	}
	stop, err := prof.Start(o.cpuprofile, o.memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtseed-overhead:", err)
		os.Exit(1)
	}
	err = report.Emit("", func(w io.Writer) error { return run(w, o) })
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtseed-overhead:", err)
		os.Exit(1)
	}
}

// run writes the report o selects to w: the distributions with -dist, the
// figure sweep otherwise.
func run(w io.Writer, o *options) error {
	if o.dist {
		return runDistributions(w, o.jobs, o.seed)
	}
	return runFigures(w, o.fig, o.jobs, o.quick, o.seed, o.csvPath, o.workers)
}

// runDistributions writes per-overhead latency distributions at the
// worst-case operating point (np=228, One by One) to w.
func runDistributions(w io.Writer, jobs int, seed uint64) error {
	for _, load := range machine.Loads() {
		m, err := overhead.Run(overhead.Config{
			Load:     load,
			Policy:   assign.OneByOne,
			NumParts: 228,
			Jobs:     jobs,
			Seed:     seed,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Overhead distributions — %s, np=228, One by One, %d jobs\n", load, jobs)
		tbl := report.NewTable("overhead", "mean", "p50", "p95", "p99", "max", "stddev")
		for _, kind := range overhead.Kinds() {
			d := m.Distribution(kind)
			tbl.AddRow(kind.String(), d.Mean, d.P50, d.P95, d.P99, d.Max, d.StdDev)
		}
		fmt.Fprintln(w, tbl)
	}
	return nil
}

// runFigures writes the selected figures of the sweep to w.
func runFigures(w io.Writer, fig, jobs int, quick bool, seed uint64, csvPath string, workers int) error {
	cfg := overhead.SweepConfig{Jobs: jobs, Seed: seed, Workers: workers}
	if quick {
		cfg = cfg.Quick()
	}
	var kinds []overhead.Kind
	for _, k := range overhead.Kinds() {
		if fig == 0 || k.Figure() == fig {
			kinds = append(kinds, k)
		}
	}

	allFigs, err := overhead.SweepAll(cfg)
	if err != nil {
		return err
	}
	for _, load := range machine.Loads() {
		for _, kind := range kinds {
			fd := overhead.ByKindLoad(allFigs, kind, load)
			if fd == nil {
				continue
			}
			fmt.Fprintf(w, "Figure %d (%s) — %s — mean over %d jobs\n",
				kind.Figure(), kind, load, cfg.Jobs)
			tbl := report.NewTable(append([]string{"np"}, policyNames(fd)...)...)
			for i, pt := range fd.Series[0].Points {
				row := []any{pt.NumParts}
				for _, s := range fd.Series {
					row = append(row, s.Points[i].Mean)
				}
				tbl.AddRow(row...)
			}
			fmt.Fprintln(w, tbl)
		}
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := overhead.WriteCSV(f, allFigs); err != nil {
			return err
		}
		fmt.Fprintf(w, "CSV written to %s\n", csvPath)
	}
	return nil
}

func policyNames(fd *overhead.FigureData) []string {
	out := make([]string, len(fd.Series))
	for i, s := range fd.Series {
		out[i] = s.Policy.String()
	}
	return out
}
