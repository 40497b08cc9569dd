package core

import (
	"time"

	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/task"
)

// PracticalConfig configures a practical imprecise task (multiple mandatory
// parts, paper §VII future work) as an RT-Seed process.
type PracticalConfig struct {
	// Task is the multi-section timing model.
	Task task.PracticalTask
	// MandatoryPriority is the mandatory thread's RTQ priority.
	MandatoryPriority int
	// MandatoryCPU pins the mandatory thread.
	MandatoryCPU machine.HWThread
	// OptionalCPUs pins the optional threads, section-major (section 0's
	// parts first); its length must equal Task.NumOptional(), and the
	// first entry must equal MandatoryCPU, as in Config.
	OptionalCPUs []machine.HWThread
	// OptionalDeadline is the task-level relative OD (from the RMWP
	// analysis of Task.Flatten()); the per-section deadlines are derived
	// from it with Task.SectionDeadlines.
	OptionalDeadline time.Duration
	// Jobs is how many jobs to execute.
	Jobs int
	// Termination selects the termination mechanism (default sigjmp).
	Termination Termination
	// OnWindup optionally receives each job's per-part progress,
	// section-major.
	OnWindup func(job int, progress []float64)
}

// NewPracticalProcess validates and builds a process for a practical
// imprecise task: within each job the sections execute in order — mandatory
// part, then that section's parallel optional parts until the section's
// optional deadline — and the single wind-up part closes the job. The
// process runs the flattened task (task.PracticalTask.Flatten) on the
// Process protocol, one fork-join per section; part indexes in its records
// and trace are section-major.
func NewPracticalProcess(k *kernel.Kernel, cfg PracticalConfig) (*Process, error) {
	ods, err := cfg.Task.SectionDeadlines(cfg.OptionalDeadline)
	if err != nil {
		return nil, err
	}
	sections := make([]section, len(ods))
	lo := 0
	for i, s := range cfg.Task.Sections {
		sections[i] = section{mandatory: s.Mandatory, lo: lo, hi: lo + len(s.Optional), od: ods[i]}
		lo = sections[i].hi
	}
	return newSectionedProcess(k, Config{
		Task:              cfg.Task.Flatten(),
		MandatoryPriority: cfg.MandatoryPriority,
		MandatoryCPU:      cfg.MandatoryCPU,
		OptionalCPUs:      cfg.OptionalCPUs,
		OptionalDeadline:  cfg.OptionalDeadline,
		Jobs:              cfg.Jobs,
		Termination:       cfg.Termination,
		App:               App{OnWindup: cfg.OnWindup},
	}, sections)
}
