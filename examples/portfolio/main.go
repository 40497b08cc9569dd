// Portfolio: three instruments traded concurrently, each as its own
// parallel-extended imprecise task under P-RMWP. The partitioner spreads
// the tasks over processors (worst-fit), each task's optional parts run its
// indicator battery against its own feed, and the wind-up parts trade
// against per-instrument brokers — the multi-task deployment the paper's
// middleware is built for, beyond its single-task evaluation.
//
//	go run ./examples/portfolio
package main

import (
	"fmt"
	"log"
	"time"

	"rtseed/internal/assign"
	"rtseed/internal/core"
	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/partition"
	"rtseed/internal/sched"
	"rtseed/internal/task"
	"rtseed/internal/trading"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	type instrument struct {
		name string
		vol  float64
		seed uint64
	}
	instruments := []instrument{
		{"EURUSD", 0.0015, 101},
		{"USDJPY", 0.0025, 202},
		{"GBPUSD", 0.0020, 303},
	}

	mach, err := machine.New(machine.XeonPhi3120A(), machine.NoLoad, machine.DefaultCostModel(), 99)
	if err != nil {
		return err
	}
	k := kernel.New(engine.New(), mach)

	// One task per instrument: T=1s ticks, m=w=100ms, five technical
	// indicators as parallel optional parts that always overrun.
	pipes := make(map[string]*trading.Pipeline, len(instruments))
	apps := make(map[string]core.App, len(instruments))
	tasks := make([]task.Task, 0, len(instruments))
	for _, ins := range instruments {
		feed, err := trading.NewFeed(trading.FeedConfig{Seed: ins.seed, Volatility: ins.vol})
		if err != nil {
			return err
		}
		// Four indicators -> np=4: with All-by-All each task's optional
		// parts fill exactly one core, so neighbouring tasks never share a
		// hardware thread (see the cross-task starvation finding in
		// EXPERIMENTS.md for what sharing would do).
		pipe, err := trading.NewPipeline(feed, trading.DefaultTechnical()[:4])
		if err != nil {
			return err
		}
		pipes[ins.name] = pipe
		apps[ins.name] = core.App{
			OnMandatory: pipe.OnMandatory,
			OnOptional:  pipe.OnOptional,
			OnWindup:    pipe.OnWindup,
		}
		tasks = append(tasks, task.Uniform(ins.name,
			100*time.Millisecond, 100*time.Millisecond,
			2*time.Second, pipe.NumOptional(), time.Second))
	}
	set, err := task.NewSet(tasks...)
	if err != nil {
		return err
	}

	sys, err := sched.NewPRMWP(k, sched.PRMWPConfig{
		Set:            set,
		Horizon:        120 * time.Second,
		Policy:         assign.AllByAll, // keep each task's parts on its own cores
		Heuristic:      partition.WorstFit,
		OverheadMargin: 20 * time.Millisecond,
		Apps:           apps,
	})
	if err != nil {
		return err
	}
	sys.Start()
	k.Run()

	fmt.Println("instrument  processor  jobs  misses  QoS    trades  waits  pnl")
	for _, ins := range instruments {
		st := sys.Processes[ins.name].Stats()
		met := pipes[ins.name].Metrics()
		fmt.Printf("%-10s  %9d  %4d  %6d  %.3f  %6d  %5d  %+.5f\n",
			ins.name, sys.Assignment.Processor[ins.name],
			st.Jobs, st.DeadlineMisses, st.MeanQoS,
			met.Trades, met.Waits, met.FinalPnL)
	}
	total := 0.0
	for _, pipe := range pipes {
		total += pipe.Metrics().FinalPnL
	}
	fmt.Printf("\nportfolio mark-to-mid PnL: %+.5f\n", total)
	return nil
}
