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
// one symbol's quotes.
//
// -odscale scales the optional-part execution time relative to the optional
// deadline: >1 means the analyses always overrun and are terminated
// (imprecise but timely), <1 means they complete (precise).
package main

import (
	"flag"
	"fmt"
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

func main() {
	ticks := flag.Int("ticks", 300, "number of 1s ticks (jobs) to trade")
	policyName := flag.String("policy", "one", "assignment policy: one, two, all")
	loadName := flag.String("load", "none", "background load: none, cpu, cpumem")
	odScale := flag.Float64("odscale", 2.0, "optional execution time as a multiple of the optional deadline headroom")
	seed := flag.Uint64("seed", 0xfeed, "feed seed")
	sweep := flag.Bool("sweep", false, "sweep the number of parallel optional parts and report the QoS/latency trade-off instead")
	feedAddr := flag.String("feed", "", "dial a rtseed-feedd quote server instead of the in-process generator")
	tracePath := flag.String("trace", "", "write a binary trace of the run to this file (analyze with rtseed-trace)")
	replayPath := flag.String("replay", "", "trade the ticks recorded in this .rtk workload trace, looping the recording")
	symbol := flag.Int("symbol", -1, "with -replay, trade only this symbol's ticks (-1: all)")
	flag.Parse()
	var err error
	switch {
	case *sweep:
		err = runSweep(*policyName, *loadName)
	case *replayPath != "" && *feedAddr != "":
		err = fmt.Errorf("-replay and -feed are mutually exclusive")
	default:
		err = run(*ticks, *policyName, *loadName, *feedAddr, *replayPath, *symbol, *tracePath, *odScale, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtseed-trade:", err)
		os.Exit(1)
	}
}

// runSweep prints the conclusion's trade-off: useful analysis work versus
// decision latency as the number of parallel optional parts grows.
func runSweep(policyName, loadName string) error {
	pol, err := parsePolicy(policyName)
	if err != nil {
		return err
	}
	load, err := parseLoad(loadName)
	if err != nil {
		return err
	}
	points, err := overhead.QoSSweep(load, pol, nil, 20, 0xfeed, 0)
	if err != nil {
		return err
	}
	fmt.Printf("QoS/latency trade-off (%v, %v): pick np where marginal work still beats the added latency\n", load, pol)
	tbl := report.NewTable("np", "useful analysis work/job", "decision latency", "misses")
	for _, p := range points {
		tbl.AddRow(p.NumParts, p.UsefulWork, p.DecisionLatency, p.DeadlineMisses)
	}
	fmt.Println(tbl)
	return nil
}

// localSource adapts the in-process generator to trading.Source.
type localSource struct{ f *trading.Feed }

// NextTick implements trading.Source.
func (s localSource) NextTick() (trading.Tick, error) { return s.f.Next(), nil }

func parsePolicy(s string) (assign.Policy, error) {
	switch s {
	case "one":
		return assign.OneByOne, nil
	case "two":
		return assign.TwoByTwo, nil
	case "all":
		return assign.AllByAll, nil
	default:
		return 0, fmt.Errorf("unknown policy %q", s)
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
		return 0, fmt.Errorf("unknown load %q", s)
	}
}

func run(ticks int, policyName, loadName, feedAddr, replayPath string, symbol int, tracePath string, odScale float64, seed uint64) error {
	pol, err := parsePolicy(policyName)
	if err != nil {
		return err
	}
	load, err := parseLoad(loadName)
	if err != nil {
		return err
	}

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
	switch {
	case replayPath != "":
		tr, err := workload.ReadFile(replayPath)
		if err != nil {
			return err
		}
		feed, err := trading.NewTraceReplay(tr, symbol)
		if err != nil {
			return fmt.Errorf("%s: %w", replayPath, err)
		}
		source = feed
	case feedAddr != "":
		nf, err := trading.DialFeed(feedAddr)
		if err != nil {
			return err
		}
		defer nf.Close()
		source = nf
	default:
		feed, err := trading.NewFeed(trading.FeedConfig{Seed: seed, Volatility: 0.002})
		if err != nil {
			return err
		}
		source = localSource{feed}
	}
	indicators := append(trading.DefaultTechnical(),
		trading.Fundamental{Series: trading.SyntheticMacro(ticks/10+2, 10, seed+1), Trend: 5})
	pipe, err := trading.NewPipelineFrom(source, indicators, trading.NewEngine(), trading.NewBroker(), 0)
	if err != nil {
		return err
	}

	// Optional-part execution time relative to the OD headroom after the
	// mandatory part (od - m = 500ms of optional execution window).
	optExec := time.Duration(odScale * float64(od-mPart))

	mach, err := machine.New(machine.XeonPhi3120A(), load, machine.DefaultCostModel(), seed)
	if err != nil {
		return err
	}
	k := kernel.New(engine.New(), mach)
	var traceFile *os.File
	if tracePath != "" {
		traceFile, err = os.Create(tracePath)
		if err != nil {
			return err
		}
		k.SetTrace(trace.New(trace.Config{
			CPUs: mach.Topology().NumHWThreads(),
			Sink: traceFile,
		}))
	}
	np := pipe.NumOptional()
	cpus, err := assign.HWThreads(mach.Topology(), pol, np)
	if err != nil {
		return err
	}
	p, err := core.NewProcess(k, core.Config{
		Task:              task.Uniform("trader", mPart, wExec, optExec, np, period),
		MandatoryPriority: basePrio,
		MandatoryCPU:      0,
		OptionalCPUs:      cpus,
		OptionalDeadline:  od,
		Jobs:              ticks,
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
	fmt.Printf("RT-Seed trading run: %d jobs, np=%d (%v), %v, optional exec %v vs OD %v\n",
		st.Jobs, np, pol, load, optExec, od)
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
	fmt.Println(tbl)
	return nil
}
