// Command rtseed-trade runs the paper's motivating application end to end:
// a real-time trading task on the RT-Seed middleware over the simulated
// Xeon Phi. The mandatory part ingests a synthetic EUR/USD tick each second,
// the parallel optional parts run Bollinger Bands and the rest of the
// technical battery plus a fundamental analyzer, and the wind-up part makes
// a bid/ask/wait decision against a simulated broker.
//
// Usage:
//
//	rtseed-trade [-ticks N] [-policy one|two|all] [-load none|cpu|cpumem]
//	             [-odscale F] [-trace FILE] [-replay FILE.rtk] [-symbol N]
//
// -trace records every kernel scheduling event and middleware part boundary
// of the run into a binary trace file for rtseed-trace.
//
// -replay trades against the market ticks recorded in a .rtk workload trace
// (rtseed-workload gen) instead of the synthetic generator, looping the
// recording so all -ticks jobs complete; -symbol restricts the recording to
// one symbol's quotes and needs -replay.
//
// -odscale scales the optional-part execution time relative to the optional
// deadline: >1 means the analyses always overrun and are terminated
// (imprecise but timely), <1 means they complete (precise).
//
// Flag errors exit 2: -ticks below 1, a negative or non-finite -odscale,
// and -symbol without -replay.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"rtseed/internal/assign"
	"rtseed/internal/core"
	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/overhead"
	"rtseed/internal/report"
	"rtseed/internal/task"
	"rtseed/internal/trace"
	"rtseed/internal/trading"
	"rtseed/internal/workload"
)

// options is the parsed command line.
type options struct {
	ticks     int
	policy    assign.Policy
	load      machine.Load
	odScale   float64
	seed      uint64
	sweep     bool
	tracePath string
	replay    string
	symbol    int
}

// parseFlags registers the command's flags on fs, parses args, and
// validates the result. The flag set is injected so tests can parse without
// touching the process-global flag.CommandLine.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	var policyName, loadName string
	fs.IntVar(&o.ticks, "ticks", 300, "number of 1s ticks (jobs) to trade")
	fs.StringVar(&policyName, "policy", "one", "assignment policy: one, two, all")
	fs.StringVar(&loadName, "load", "none", "background load: none, cpu, cpumem")
	fs.Float64Var(&o.odScale, "odscale", 2.0, "optional execution time as a multiple of the optional deadline headroom")
	fs.Uint64Var(&o.seed, "seed", 0xfeed, "feed seed")
	fs.BoolVar(&o.sweep, "sweep", false, "sweep the number of parallel optional parts and report the QoS/latency trade-off instead")
	fs.StringVar(&o.tracePath, "trace", "", "write a binary trace of the run to this file (analyze with rtseed-trace)")
	fs.StringVar(&o.replay, "replay", "", "trade the ticks recorded in this .rtk workload trace, looping the recording")
	fs.IntVar(&o.symbol, "symbol", -1, "with -replay, trade only this symbol's ticks (-1: all)")
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
	if o.ticks < 1 {
		return nil, fmt.Errorf("-ticks %d: want at least 1 tick", o.ticks)
	}
	if o.odScale < 0 || math.IsNaN(o.odScale) || math.IsInf(o.odScale, 0) {
		return nil, fmt.Errorf("-odscale %v: want a finite, non-negative multiple", o.odScale)
	}
	if o.symbol != -1 && o.replay == "" {
		return nil, fmt.Errorf("-symbol %d: only -replay filters by symbol", o.symbol)
	}
	return o, nil
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtseed-trade:", err)
		os.Exit(2)
	}
	if err := report.Emit("", func(w io.Writer) error { return run(w, o) }); err != nil {
		fmt.Fprintln(os.Stderr, "rtseed-trade:", err)
		os.Exit(1)
	}
}

// runSweep writes the conclusion's trade-off to w: useful analysis work
// versus decision latency as the number of parallel optional parts grows.
func runSweep(w io.Writer, pol assign.Policy, load machine.Load) error {
	points, err := overhead.QoSSweep(load, pol, nil, 20, 0xfeed, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "QoS/latency trade-off (%v, %v): pick np where marginal work still beats the added latency\n", load, pol)
	tbl := report.NewTable("np", "useful analysis work/job", "decision latency", "misses")
	for _, p := range points {
		tbl.AddRow(p.NumParts, p.UsefulWork, p.DecisionLatency, p.DeadlineMisses)
	}
	fmt.Fprintln(w, tbl)
	return nil
}

// run writes the report o selects to w: the np sweep with -sweep, the
// trading run otherwise.
func run(w io.Writer, o *options) error {
	if o.sweep {
		return runSweep(w, o.policy, o.load)
	}
	return runTrade(w, o)
}

// runTrade trades o.ticks ticks and writes the run's report to w.
func runTrade(w io.Writer, o *options) error {
	// The paper's task: T = 1s (one OANDA tick per second), m = w = 250ms.
	const (
		period   = time.Second
		mPart    = 250 * time.Millisecond
		wBudget  = 250 * time.Millisecond
		wExec    = 150 * time.Millisecond
		od       = period - wBudget // Theorem 2 of [5], n = 1
		basePrio = 90
	)

	var source trading.Source
	if o.replay != "" {
		tr, err := workload.ReadFile(o.replay)
		if err != nil {
			return err
		}
		feed, err := trading.NewTraceReplay(tr, o.symbol)
		if err != nil {
			return fmt.Errorf("%s: %w", o.replay, err)
		}
		source = feed
	} else {
		feed, err := trading.NewFeed(trading.FeedConfig{Seed: o.seed, Volatility: 0.002})
		if err != nil {
			return err
		}
		source = feed
	}
	indicators := append(trading.DefaultTechnical(),
		trading.Fundamental{Series: trading.SyntheticMacro(o.ticks/10+2, 10, o.seed+1), Trend: 5})
	pipe, err := trading.NewPipeline(source, indicators)
	if err != nil {
		return err
	}

	// Optional-part execution time relative to the OD headroom after the
	// mandatory part (od - m = 500ms of optional execution window).
	optExec := time.Duration(o.odScale * float64(od-mPart))

	mach, err := machine.New(machine.XeonPhi3120A(), o.load, machine.DefaultCostModel(), o.seed)
	if err != nil {
		return err
	}
	k := kernel.New(engine.New(), mach)
	var traceFile *os.File
	if o.tracePath != "" {
		traceFile, err = os.Create(o.tracePath)
		if err != nil {
			return err
		}
		k.SetTrace(trace.New(trace.Config{
			CPUs: mach.Topology().NumHWThreads(),
			Sink: traceFile,
		}))
	}
	np := pipe.NumOptional()
	cpus, err := assign.HWThreads(mach.Topology(), o.policy, np)
	if err != nil {
		return err
	}
	p, err := core.NewProcess(k, core.Config{
		Task:              task.Uniform("trader", mPart, wExec, optExec, np, period),
		MandatoryPriority: basePrio,
		MandatoryCPU:      0,
		OptionalCPUs:      cpus,
		OptionalDeadline:  od,
		Jobs:              o.ticks,
		App: core.App{
			OnMandatory: pipe.OnMandatory,
			OnOptional:  pipe.OnOptional,
			OnWindup:    pipe.OnWindup,
		},
	})
	if err != nil {
		return err
	}
	p.Start()
	k.Run()
	if traceFile != nil {
		if err := k.Trace().Close(k.ThreadInfos()); err != nil {
			traceFile.Close()
			return err
		}
		if err := traceFile.Close(); err != nil {
			return err
		}
	}

	st := p.Stats()
	fmt.Fprintf(w, "RT-Seed trading run: %d jobs, np=%d (%v), %v, optional exec %v vs OD %v\n",
		st.Jobs, np, o.policy, o.load, optExec, od)
	tbl := report.NewTable("metric", "value")
	tbl.AddRow("deadline misses", st.DeadlineMisses)
	tbl.AddRow("mean QoS (part progress)", st.MeanQoS)
	tbl.AddRow("parts completed", st.CompletedParts)
	tbl.AddRow("parts terminated", st.TerminatedParts)
	tbl.AddRow("parts discarded", st.DiscardedParts)
	tbl.AddRow("decision QoS", pipe.MeanQoS())
	met := pipe.Metrics()
	tbl.AddRow("trades", met.Trades)
	tbl.AddRow("waits", met.Waits)
	tbl.AddRow("position", fmt.Sprintf("%.0f", pipe.Broker().Position()))
	tbl.AddRow("mark-to-mid PnL", fmt.Sprintf("%+.5f", met.FinalPnL))
	tbl.AddRow("max drawdown", fmt.Sprintf("%.5f", met.MaxDrawdown))
	tbl.AddRow("per-tick Sharpe", fmt.Sprintf("%.3f", met.Sharpe))
	tbl.AddRow("hit rate", fmt.Sprintf("%.2f", met.HitRate))
	tbl.AddRow("feed errors", pipe.SourceErrors())
	fmt.Fprintln(w, tbl)
	return nil
}
