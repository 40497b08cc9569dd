// Command rtseed-workload generates, records, and inspects workload traces.
//
// Usage:
//
//	rtseed-workload spec -builtin NAME [-o FILE]
//	rtseed-workload gen [-spec FILE|-builtin NAME] [-clients N] [-seed N]
//	                    [-horizon D] [-ticks N] -o FILE.rtk
//	rtseed-workload inspect FILE.rtk
//	rtseed-workload validate FILE
//
// spec writes a builtin spec as editable JSON. gen compiles a spec into its
// deterministic client population, synthesizes a market tick stream, and
// records both as a versioned .rtk trace; feeding that file to
// rtseed-cluster -replay (or rtseed-trade -replay for the ticks)
// reproduces the generating run exactly. inspect prints a trace's metadata
// and per-window/per-class breakdown; validate checks a spec JSON or .rtk
// file and exits nonzero on the first problem. Every output is a pure
// function of the flags.
//
// Flag errors exit 2: a missing or unknown subcommand, spec with an empty
// -builtin, an unknown -builtin name, gen without -o, without exactly one
// of -spec and -builtin, or with a negative -clients or -ticks or a
// non-positive -horizon, and inspect or validate without exactly one file.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"rtseed/internal/report"
	"rtseed/internal/workload"
)

// options is the parsed command line: a subcommand and its flags.
type options struct {
	cmd      string
	specFile string
	builtin  string
	clients  int
	seed     uint64
	horizon  time.Duration
	ticks    int
	out      string
	// file is inspect's or validate's argument.
	file string
}

// parseFlags parses the subcommand named by args[0] and its flags, and
// validates the result. Flag-set usage goes to stderr, so tests can discard
// it.
func parseFlags(stderr io.Writer, args []string) (*options, error) {
	if len(args) == 0 {
		return nil, usage()
	}
	o := &options{cmd: args[0]}
	fs := flag.NewFlagSet(o.cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	switch o.cmd {
	case "spec":
		fs.StringVar(&o.builtin, "builtin", "steady", "builtin spec to write")
		fs.StringVar(&o.out, "o", "", "write the JSON spec to this file (default stdout)")
	case "gen":
		fs.StringVar(&o.specFile, "spec", "", "workload spec JSON file")
		fs.StringVar(&o.builtin, "builtin", "", "builtin spec name instead of -spec")
		fs.IntVar(&o.clients, "clients", 10000, "client population size")
		fs.Uint64Var(&o.seed, "seed", 1, "generation seed")
		fs.DurationVar(&o.horizon, "horizon", time.Second, "trace horizon")
		fs.IntVar(&o.ticks, "ticks", 10000, "market ticks to synthesize")
		fs.StringVar(&o.out, "o", "", "write the .rtk trace to this file (required)")
	case "inspect", "validate":
	default:
		return nil, usage()
	}
	if err := fs.Parse(args[1:]); err != nil {
		return nil, err
	}
	switch o.cmd {
	case "spec":
		if o.builtin == "" {
			return nil, fmt.Errorf("spec needs -builtin NAME")
		}
	case "gen":
		switch {
		case (o.specFile == "") == (o.builtin == ""):
			return nil, fmt.Errorf("gen needs exactly one of -spec FILE and -builtin NAME")
		case o.out == "":
			return nil, fmt.Errorf("gen needs -o FILE.rtk")
		case o.clients < 0:
			return nil, fmt.Errorf("-clients %d: want a non-negative client count", o.clients)
		case o.ticks < 0:
			return nil, fmt.Errorf("-ticks %d: want a non-negative tick count", o.ticks)
		case o.horizon <= 0:
			return nil, fmt.Errorf("-horizon %v: want a positive duration", o.horizon)
		}
	case "inspect", "validate":
		if fs.NArg() != 1 {
			return nil, fmt.Errorf("%s needs one FILE argument", o.cmd)
		}
		o.file = fs.Arg(0)
	}
	if _, ok := workload.BuiltinSpec(o.builtin); o.builtin != "" && !ok {
		return nil, fmt.Errorf("-builtin %q: want one of %s", o.builtin, strings.Join(workload.BuiltinSpecNames(), ", "))
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Stderr, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtseed-workload:", err)
		os.Exit(2)
	}
	if err := report.Emit("", func(w io.Writer) error { return run(w, o) }); err != nil {
		fmt.Fprintln(os.Stderr, "rtseed-workload:", err)
		os.Exit(1)
	}
}

func usage() error {
	return fmt.Errorf("usage: rtseed-workload spec|gen|inspect|validate [flags] (builtins: %s)",
		strings.Join(workload.BuiltinSpecNames(), ", "))
}

// run runs the parsed subcommand; w receives the deterministic output.
func run(w io.Writer, o *options) error {
	switch o.cmd {
	case "spec":
		return runSpec(w, o)
	case "gen":
		return runGen(w, o)
	case "inspect":
		return runInspect(w, o.file)
	}
	return runValidate(w, o.file)
}

// resolveSpec loads -builtin NAME, or -spec FILE when no builtin is named;
// parseFlags has checked that exactly one is set and that NAME is a builtin.
func resolveSpec(specFile, builtin string) (workload.Spec, error) {
	if builtin != "" {
		spec, _ := workload.BuiltinSpec(builtin)
		return spec, nil
	}
	f, err := os.Open(specFile)
	if err != nil {
		return workload.Spec{}, err
	}
	defer f.Close()
	return workload.ParseSpec(f)
}

// outWriter opens -o, defaulting to w.
func outWriter(w io.Writer, path string) (io.Writer, func() error, error) {
	if path == "" {
		return w, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func runSpec(w io.Writer, o *options) error {
	spec, err := resolveSpec("", o.builtin)
	if err != nil {
		return err
	}
	dst, closeOut, err := outWriter(w, o.out)
	if err != nil {
		return err
	}
	if err := workload.WriteSpec(dst, spec); err != nil {
		closeOut()
		return err
	}
	return closeOut()
}

func runGen(w io.Writer, o *options) error {
	spec, err := resolveSpec(o.specFile, o.builtin)
	if err != nil {
		return err
	}
	src, err := workload.Compile(spec, workload.CompileConfig{
		Clients: o.clients, Seed: o.seed, Horizon: o.horizon,
	})
	if err != nil {
		return err
	}
	tr := src.Trace(o.ticks)
	if err := workload.WriteFile(o.out, tr); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s: workload %s, %d clients, %d ticks, seed %d, horizon %v\n",
		o.out, tr.Meta.Name, tr.Meta.Clients, len(tr.Ticks), tr.Meta.Seed, tr.Meta.Horizon)
	return nil
}

func runInspect(w io.Writer, path string) error {
	tr, err := workload.ReadFile(path)
	if err != nil {
		return err
	}
	m := tr.Meta
	fmt.Fprintf(w, "# rtseed-workload inspect\n\n")
	fmt.Fprintf(w, "workload %s: %d clients, %d ticks, %d symbols, seed %d, horizon %v\n\n",
		m.Name, m.Clients, len(tr.Ticks), m.Symbols, m.Seed, m.Horizon)

	fmt.Fprintf(w, "## clients by class\n\n```\n")
	type classAgg struct {
		clients, tasks int
		util           float64
	}
	var perClass [workload.NumClasses]classAgg
	for _, p := range tr.Clients {
		a := &perClass[p.Class]
		a.clients++
		a.tasks += p.NTasks
		a.util += p.Util
	}
	ct := report.NewTable("class", "clients", "tasks", "mean-util")
	for c := 0; c < workload.NumClasses; c++ {
		a := perClass[c]
		mean := 0.0
		if a.clients > 0 {
			mean = a.util / float64(a.clients)
		}
		ct.AddRow(workload.Class(c).String(), a.clients, a.tasks, mean)
	}
	fmt.Fprintf(w, "%s```\n", ct)

	if len(m.Windows) > 0 {
		fmt.Fprintf(w, "\n## arrivals by window\n\n```\n")
		wt := report.NewTable("window", "span", "rate", "arrivals", "ticks")
		for i, win := range m.Windows {
			arrivals, ticksIn := 0, 0
			for _, p := range tr.Clients {
				if inWindow(p.Arrival, win, i == len(m.Windows)-1) {
					arrivals++
				}
			}
			for _, t := range tr.Ticks {
				if inWindow(t.At, win, i == len(m.Windows)-1) {
					ticksIn++
				}
			}
			wt.AddRow(win.Name, fmt.Sprintf("%v-%v", win.Start, win.End), win.Rate, arrivals, ticksIn)
		}
		fmt.Fprintf(w, "%s```\n", wt)
	}
	return nil
}

// inWindow reports whether instant at falls in win; the last window also
// owns its right edge (the profile clamps at the horizon).
func inWindow(at time.Duration, win workload.ResolvedWindow, last bool) bool {
	if at < win.Start {
		return false
	}
	if last {
		return at <= win.End
	}
	return at < win.End
}

func runValidate(w io.Writer, path string) error {
	if strings.HasSuffix(path, ".rtk") {
		tr, err := workload.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: valid trace (workload %s, %d clients, %d ticks)\n",
			path, tr.Meta.Name, tr.Meta.Clients, len(tr.Ticks))
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spec, err := workload.ParseSpec(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: valid spec (%s, %d cohorts, %d windows)\n",
		path, spec.Name, len(spec.Cohorts), len(spec.Windows))
	return nil
}
