// Package prof wires the command-line tools' -cpuprofile/-memprofile flags
// to runtime/pprof, so hot-path work on the simulator always starts from a
// profile of the real sweep workload rather than a synthetic benchmark.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins profiling per the two file paths, either of which may be
// empty. It returns a stop function that finishes the CPU profile and writes
// the heap profile; the caller must invoke it once, after the measured work,
// even when both paths are empty (it is then a no-op).
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("mem profile: %w", err)
			}
			runtime.GC() // capture the live heap, not transient garbage
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("mem profile: %w", err)
			}
		}
		return nil
	}, nil
}
