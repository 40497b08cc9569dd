// Practical: the practical imprecise computation model with multiple
// mandatory parts — the paper's stated future work (§VII, reference [33]) —
// running on the RT-Seed middleware.
//
// The task is a two-stage trading job: stage 1 ingests level-1 quotes and
// refines fast indicators; stage 2 ingests depth data and refines slow
// indicators; the wind-up merges both into the decision. Each stage has its
// own optional deadline derived from the task-level OD.
//
//	go run ./examples/practical
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"rtseed/internal/analysis"
	"rtseed/internal/assign"
	"rtseed/internal/core"
	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/task"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	tk := task.PracticalTask{
		Name: "two-stage-trader",
		Sections: []task.Section{
			// Stage 1: fast quote processing + two fast analyses.
			{Mandatory: 15 * time.Millisecond, Optional: []time.Duration{time.Second, time.Second}},
			// Stage 2: depth processing + one slow analysis.
			{Mandatory: 20 * time.Millisecond, Optional: []time.Duration{2 * time.Second}},
		},
		Windup: 20 * time.Millisecond,
		Period: 100 * time.Millisecond,
	}

	// The RMWP analysis applies to the flattened task (Σm, w).
	res, err := analysis.RMWP(task.MustNewSet(tk.Flatten()))
	if err != nil {
		return err
	}
	od := res[0].OptionalDeadline - 5*time.Millisecond
	sectionODs, err := tk.SectionDeadlines(od)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "task-level OD = %v; per-section optional deadlines = %v\n\n", od, sectionODs)

	mach, err := machine.New(machine.XeonPhi3120A(), machine.NoLoad, machine.DefaultCostModel(), 5)
	if err != nil {
		return err
	}
	k := kernel.New(engine.New(), mach)
	cpus, err := assign.HWThreads(mach.Topology(), assign.OneByOne, tk.NumOptional())
	if err != nil {
		return err
	}
	p, err := core.NewPracticalProcess(k, core.PracticalConfig{
		Task:              tk,
		MandatoryPriority: 90,
		MandatoryCPU:      0,
		OptionalCPUs:      cpus,
		OptionalDeadline:  od,
		Jobs:              5,
		OnWindup: func(job int, progress []float64) {
			fmt.Fprintf(w, "job %d: stage-1 parts %.0f%% / %.0f%%, stage-2 part %.0f%%\n",
				job, progress[0]*100, progress[1]*100, progress[2]*100)
		},
	})
	if err != nil {
		return err
	}
	p.Start()
	k.Run()
	st := p.Stats()
	fmt.Fprintf(w, "\n%d jobs, %d deadline misses, mean QoS %.2f (%d parts terminated)\n",
		st.Jobs, st.DeadlineMisses, st.MeanQoS, st.TerminatedParts)
	return nil
}
