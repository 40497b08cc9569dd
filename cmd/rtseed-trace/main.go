// Command rtseed-trace analyzes a binary trace file produced by the
// simulator's tracing subsystem (internal/trace): per-task response-time and
// release-latency histograms, deadline-miss attribution (which optional
// parts overran, which thread preempted the task), per-CPU utilization
// timelines, and a Perfetto-loadable Chrome trace_event export.
//
// Usage:
//
//	rtseed-trace [-hist] [-misses] [-util N] [-perfetto FILE] [-check] FILE
//
// Produce a trace with `rtseed-repro -quick -trace out.rtt` or
// `rtseed-trade -trace out.rtt`, then `rtseed-trace -perfetto out.json
// out.rtt` and load out.json at https://ui.perfetto.dev.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rtseed/internal/report"
	"rtseed/internal/trace"
)

// options is the parsed command line.
type options struct {
	hist     bool
	misses   bool
	util     int
	perfetto string
	check    bool
	file     string
}

// parseFlags registers the command's flags on fs, parses args, and validates
// the result. The flag set is injected so tests can parse without touching
// the process-global flag.CommandLine.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.BoolVar(&o.hist, "hist", false, "print per-task response-time and release-latency histograms")
	fs.BoolVar(&o.misses, "misses", false, "print per-miss attribution (overrunning parts, preemptors)")
	fs.IntVar(&o.util, "util", 0, "print per-CPU utilization over N time buckets")
	fs.StringVar(&o.perfetto, "perfetto", "", "also write a Chrome trace_event JSON file (Perfetto-loadable)")
	fs.BoolVar(&o.check, "check", false, "exit nonzero unless the trace yields a non-empty analysis")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.util < 0 {
		return nil, fmt.Errorf("-util must be non-negative, got %d", o.util)
	}
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("expected exactly one trace file, got %d arguments", fs.NArg())
	}
	o.file = fs.Arg(0)
	return o, nil
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtseed-trace:", err)
		os.Exit(2)
	}
	if err := report.Emit("", func(w io.Writer) error { return run(w, o) }); err != nil {
		fmt.Fprintln(os.Stderr, "rtseed-trace:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, o *options) error {
	t, err := trace.ReadFile(o.file)
	if err != nil {
		return err
	}
	a := trace.Analyze(t)
	if o.check && !a.NonEmpty() {
		return fmt.Errorf("%s: trace yields an empty analysis (no completed jobs)", o.file)
	}

	writeSummary(w, t, a)
	if o.hist {
		writeHistograms(w, a)
	}
	if o.misses {
		writeMisses(w, a)
	}
	if o.util > 0 {
		writeUtilization(w, a, o.util)
	}
	if o.perfetto != "" {
		f, err := os.Create(o.perfetto)
		if err != nil {
			return err
		}
		if err := trace.WritePerfetto(f, t); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s (load at https://ui.perfetto.dev)\n", o.perfetto)
	}
	return nil
}

// writeSummary prints the per-task table and the trace-level counters.
func writeSummary(w io.Writer, t *trace.Trace, a *trace.Analysis) {
	fmt.Fprintf(w, "trace: %d records, %d threads, span %v", len(t.Records), len(t.Threads), a.Span)
	if a.Lost > 0 {
		fmt.Fprintf(w, ", %d records LOST (counts are lower bounds)", a.Lost)
	}
	fmt.Fprintln(w)
	tbl := report.NewTable("task", "jobs", "completed", "terminated", "discarded", "misses", "mean resp", "max resp")
	for _, s := range a.Tasks {
		tbl.AddRow(s.Name, s.Jobs, s.Completed, s.Terminated, s.Discarded, s.Misses,
			s.Response.Mean(), s.Response.Max)
	}
	fmt.Fprint(w, tbl)
}

func writeHistograms(w io.Writer, a *trace.Analysis) {
	for _, s := range a.Tasks {
		if s.Response.N > 0 {
			fmt.Fprintf(w, "\n%s response time (finish - release), %d jobs:\n", s.Name, s.Response.N)
			var b strings.Builder
			s.Response.Format(&b, "  ")
			fmt.Fprint(w, b.String())
		}
		if s.ReleaseLat.N > 0 {
			fmt.Fprintf(w, "%s release latency (mandatory start - release):\n", s.Name)
			var b strings.Builder
			s.ReleaseLat.Format(&b, "  ")
			fmt.Fprint(w, b.String())
		}
	}
}

func writeMisses(w io.Writer, a *trace.Analysis) {
	if len(a.Misses) == 0 {
		fmt.Fprintf(w, "\nno deadline misses\n")
		return
	}
	fmt.Fprintf(w, "\ndeadline misses:\n")
	for _, m := range a.Misses {
		fmt.Fprintf(w, "  %s job %d at %v: late by %v", m.Task, m.Job, m.At, m.Lateness)
		if len(m.OverranParts) > 0 {
			fmt.Fprintf(w, "; parts terminated at OD %v", m.OverranParts)
		}
		if m.Preemptions > 0 {
			fmt.Fprintf(w, "; preempted %dx (last by %s)", m.Preemptions, m.Preemptor)
		}
		fmt.Fprintln(w)
	}
}

func writeUtilization(w io.Writer, a *trace.Analysis, buckets int) {
	fmt.Fprintf(w, "\nper-CPU utilization (%d buckets over %v):\n", buckets, a.Span)
	for _, c := range a.CPUs {
		fmt.Fprintf(w, "  cpu%-3d", c.CPU)
		for _, u := range c.Utilization(buckets, a.Span) {
			fmt.Fprintf(w, " %4.0f%%", u*100)
		}
		fmt.Fprintln(w)
	}
}
