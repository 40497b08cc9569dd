package analysis

import (
	"fmt"
	"math"
	"time"

	"rtseed/internal/sweep"
	"rtseed/internal/task"
	"rtseed/internal/workload"
)

// AcceptancePoint is one point of an acceptance-ratio curve: the fraction
// of randomly generated task sets that each test admits at a target
// utilization.
type AcceptancePoint struct {
	Utilization float64
	// RMWP is the exact semi-fixed-priority test's acceptance ratio.
	RMWP float64
	// GeneralRM is the exact response-time test for general scheduling of
	// the same task set (C = m + w, no optional deadline constraint).
	GeneralRM float64
	// LLBound is the Liu & Layland sufficient utilization test.
	LLBound float64
}

// AcceptanceConfig parameterizes an acceptance-ratio experiment.
type AcceptanceConfig struct {
	// N is the tasks per set.
	N int
	// SetsPerPoint is how many random sets are drawn per utilization.
	SetsPerPoint int
	// Utilizations lists the ΣU targets to sweep.
	Utilizations []float64
	// Seed seeds the generator.
	Seed uint64
	// Workers bounds the number of utilization points evaluated
	// concurrently (default GOMAXPROCS). Each set's generator seed is a
	// pure function of (Seed, point, set), so the curves are identical for
	// any worker count.
	Workers int
	// Spec, when non-nil, switches set generation to the bursty workload
	// spec: each task rolls a cohort by weight and draws its period from
	// that cohort's range, so the curve reflects the heterogeneous (T, np)
	// mix of a market population instead of the uniform 10ms-1s default.
	// Utilizations stay UUniFast-distributed, so the ΣU target is exact
	// and points remain comparable with the legacy mode. When nil the
	// generator consumes exactly the legacy random stream.
	Spec *workload.Spec
}

// AcceptanceRatio sweeps random task sets over target utilizations and
// reports, per point, the acceptance ratios of the RMWP semi-fixed-priority
// test, the general-RM exact test, and the Liu & Layland bound. RMWP's
// acceptance can only be at or below general RM's: the optional deadline
// constraint (mandatory parts must finish by OD_i) is strictly stronger
// than plain deadline feasibility — the price of guaranteed wind-up parts.
func AcceptanceRatio(cfg AcceptanceConfig) ([]AcceptancePoint, error) {
	if cfg.N <= 0 || cfg.SetsPerPoint <= 0 || len(cfg.Utilizations) == 0 {
		return nil, fmt.Errorf("analysis: bad acceptance config %+v", cfg)
	}
	if cfg.Spec != nil {
		if err := cfg.Spec.Validate(); err != nil {
			return nil, err
		}
	}
	return sweep.Map(cfg.Workers, len(cfg.Utilizations), func(pi int) (AcceptancePoint, error) {
		u := cfg.Utilizations[pi]
		// Set j of point pi draws seed Seed + pi*SetsPerPoint + j + 1 —
		// the same stream the original sequential loop consumed.
		seedBase := cfg.Seed + uint64(pi*cfg.SetsPerPoint)
		var rmwp, rm, ll int
		for j := 0; j < cfg.SetsPerPoint; j++ {
			var set *task.Set
			var err error
			if cfg.Spec != nil {
				set, err = specSet(cfg.Spec, cfg.N, u, seedBase+uint64(j)+1)
			} else {
				set, err = task.Generate(task.GenConfig{
					N:                cfg.N,
					TotalUtilization: u,
					MinPeriod:        10 * time.Millisecond,
					MaxPeriod:        time.Second,
					Seed:             seedBase + uint64(j) + 1,
				})
			}
			if err != nil {
				return AcceptancePoint{}, err
			}
			if _, err := RMWP(set); err == nil {
				rmwp++
			}
			if _, ok := ResponseTimes(set); ok {
				rm++
			}
			if UtilizationSchedulable(set) {
				ll++
			}
		}
		n := float64(cfg.SetsPerPoint)
		return AcceptancePoint{
			Utilization: u,
			RMWP:        float64(rmwp) / n,
			GeneralRM:   float64(rm) / n,
			LLBound:     float64(ll) / n,
		}, nil
	})
}

// specSet draws one cohort-structured task set from a workload spec. Each
// task rolls its cohort by population weight and takes its period
// log-uniformly from that cohort's range and its parallel-part count from
// the cohort's parallelism range; the N utilizations are UUniFast over the
// target ΣU, exactly as the legacy generator distributes them, and each
// task's wind-up part is task.GenWindupFraction of its WCET. The draw is a
// pure function of (spec, n, total, seed) on a stream disjoint from the
// legacy generator's.
func specSet(spec *workload.Spec, n int, total float64, seed uint64) (*task.Set, error) {
	if total <= 0 || total > float64(n) {
		return nil, fmt.Errorf("analysis: total utilization %.3f outside (0, %d]", total, n)
	}
	s := workload.NewStream(seed, 0)
	// UUniFast (Bini & Buttazzo 2005) over the spec stream.
	utils := make([]float64, n)
	sum := total
	for i := 0; i < n-1; i++ {
		next := sum * math.Pow(s.Float64(), 1/float64(n-i-1))
		utils[i] = sum - next
		sum = next
	}
	utils[n-1] = sum
	totalWeight := 0.0
	for _, c := range spec.Cohorts {
		totalWeight += c.Weight
	}
	tasks := make([]task.Task, n)
	for i, u := range utils {
		roll := s.Float64() * totalWeight
		cohort := spec.Cohorts[len(spec.Cohorts)-1]
		for _, c := range spec.Cohorts {
			if roll < c.Weight {
				cohort = c
				break
			}
			roll -= c.Weight
		}
		period := s.LogUniformDur(time.Duration(cohort.Period[0]), time.Duration(cohort.Period[1]))
		np := s.IntRange(cohort.Parallel[0], cohort.Parallel[1])
		wcet := time.Duration(u * float64(period))
		if wcet < 2 {
			wcet = 2
		}
		if wcet > period {
			wcet = period
		}
		w := time.Duration(float64(wcet) * task.GenWindupFraction)
		if w < 1 {
			w = 1
		}
		m := wcet - w
		if m < 1 {
			m = 1
			w = wcet - m
		}
		var opt time.Duration
		if np > 0 {
			opt = period / 8
		}
		tasks[i] = task.Uniform(fmt.Sprintf("b%d", i), m, w, opt, np, period)
	}
	return task.NewSet(tasks...)
}
