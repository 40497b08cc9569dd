// Trading: the paper's motivating real-time trading system (§II-A) in both
// execution modes.
//
// Part 1 runs the trading pipeline on the simulated kernel under P-RMWP,
// comparing a generous optional deadline (analyses complete — precise) with
// a tight one (analyses terminated — imprecise but timely), showing the QoS
// difference.
//
// Part 2 runs the same pipeline for a few seconds of real wall-clock time
// on the Go runtime via internal/rt — the best-effort mode with documented
// caveats.
//
//	go run ./examples/trading
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"rtseed/internal/assign"
	"rtseed/internal/core"
	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/rt"
	"rtseed/internal/task"
	"rtseed/internal/trading"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("== Simulated Xeon Phi, P-RMWP ==")
	// Tight deadline: optional parts overrun and are terminated.
	if err := simulated("imprecise (analyses terminated at OD)", 2.0); err != nil {
		return err
	}
	// Generous deadline: the analyses complete.
	if err := simulated("precise (analyses complete before OD)", 0.5); err != nil {
		return err
	}
	fmt.Println("== Wall-clock Go runtime (best effort) ==")
	return wallclock()
}

// simulated trades 120 ticks on the simulator. odScale sets each optional
// part's execution time as a multiple of the optional-deadline headroom.
func simulated(label string, odScale float64) error {
	const (
		period  = time.Second
		mPart   = 250 * time.Millisecond
		wExec   = 150 * time.Millisecond
		od      = 750 * time.Millisecond // D - w, Theorem 2 of [5] with n=1
		jobs    = 120
		feedVol = 0.002
	)
	feed, err := trading.NewFeed(trading.FeedConfig{Seed: 7, Volatility: feedVol})
	if err != nil {
		return err
	}
	pipe, err := trading.NewPipeline(feed, trading.DefaultTechnical())
	if err != nil {
		return err
	}
	mach, err := machine.New(machine.XeonPhi3120A(), machine.NoLoad, machine.DefaultCostModel(), 7)
	if err != nil {
		return err
	}
	k := kernel.New(engine.New(), mach)
	np := pipe.NumOptional()
	cpus, err := assign.HWThreads(mach.Topology(), assign.OneByOne, np)
	if err != nil {
		return err
	}
	optExec := time.Duration(odScale * float64(od-mPart))
	p, err := core.NewProcess(k, core.Config{
		Task:              task.Uniform("trader", mPart, wExec, optExec, np, period),
		MandatoryPriority: 90,
		MandatoryCPU:      0,
		OptionalCPUs:      cpus,
		OptionalDeadline:  od,
		Jobs:              jobs,
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
	st := p.Stats()
	fmt.Printf("%-42s misses=%d partQoS=%.2f decisionQoS=%.2f trades=%d pnl=%+.5f\n",
		label, st.DeadlineMisses, st.MeanQoS, pipe.MeanQoS(),
		pipe.Broker().Trades(), pipe.Broker().Equity())
	return nil
}

// wallclock trades 20 ticks at a 100ms period in real time.
func wallclock() error {
	feed, err := trading.NewFeed(trading.FeedConfig{Seed: 9, Volatility: 0.002})
	if err != nil {
		return err
	}
	pipe, err := trading.NewPipeline(feed, trading.DefaultTechnical())
	if err != nil {
		return err
	}
	np := pipe.NumOptional()
	optionals := make([]rt.OptionalFunc, np)
	for kIdx := 0; kIdx < np; kIdx++ {
		kIdx := kIdx
		// Each optional part refines its indicator in 20 anytime steps of
		// ~5ms; the cancellation at the optional deadline reports the
		// progress achieved.
		optionals[kIdx] = rt.SpinOptional(20, 5*time.Millisecond, nil)
	}
	var jobNow int
	runner, err := rt.NewRunner(rt.Config{
		Name:             "trader-rt",
		Period:           100 * time.Millisecond,
		OptionalDeadline: 70 * time.Millisecond,
		Jobs:             20,
		Mandatory: func(job int) {
			jobNow = job
			pipe.OnMandatory(job)
		},
		Optional: optionals,
		Windup: func(job int, progress []float64) {
			for k, p := range progress {
				pipe.OnOptional(jobNow, k, p)
			}
			pipe.OnWindup(job, progress)
		},
	})
	if err != nil {
		return err
	}
	reports, err := runner.Run(context.Background())
	if err != nil {
		return err
	}
	misses := 0
	meanProgress := 0.0
	for _, r := range reports {
		if !r.Met {
			misses++
		}
		for _, p := range r.Progress {
			meanProgress += p
		}
	}
	meanProgress /= float64(len(reports) * np)
	fmt.Printf("wall-clock: %d jobs, %d soft-deadline misses, mean progress %.2f, trades=%d pnl=%+.5f\n",
		len(reports), misses, meanProgress, pipe.Broker().Trades(), pipe.Broker().Equity())
	return nil
}
