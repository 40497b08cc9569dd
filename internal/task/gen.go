package task

import (
	"fmt"
	"math"
	"time"

	"rtseed/internal/engine"
)

// GenWindupFraction is w_i / C_i of every generated task: half of each
// task's WCET is its wind-up part.
const GenWindupFraction = 0.5

// GenConfig parameterizes random task-set generation for schedulability
// experiments (acceptance-ratio curves and the breakdown comparisons).
type GenConfig struct {
	// N is the number of tasks per set.
	N int
	// TotalUtilization is the target ΣU_i, distributed with UUniFast.
	TotalUtilization float64
	// MinPeriod and MaxPeriod bound the log-uniform period distribution.
	MinPeriod, MaxPeriod time.Duration
	// NumOptional and OptionalLength configure each task's parallel
	// optional parts (np defaults to 0).
	NumOptional    int
	OptionalLength time.Duration
	// Seed seeds the generator.
	Seed uint64
	// NamePrefix prefixes generated task names ("g" when empty, yielding
	// g0, g1, ...). Callers that pool sets from many generator draws — the
	// cluster front-end admits thousands of client sets onto one machine —
	// use it to keep task names globally unique.
	NamePrefix string
}

func (c *GenConfig) fillDefaults() {
	if c.MinPeriod == 0 {
		c.MinPeriod = 10 * time.Millisecond
	}
	if c.MaxPeriod == 0 {
		c.MaxPeriod = time.Second
	}
	if c.NamePrefix == "" {
		c.NamePrefix = "g"
	}
}

// Generate draws one random task set with the UUniFast utilization
// distribution (Bini & Buttazzo): N utilizations summing exactly to
// TotalUtilization, each in (0, TotalUtilization).
func Generate(cfg GenConfig) (*Set, error) {
	cfg.fillDefaults()
	if cfg.N <= 0 {
		return nil, fmt.Errorf("task: generator needs N > 0, got %d", cfg.N)
	}
	if cfg.TotalUtilization <= 0 || cfg.TotalUtilization > float64(cfg.N) {
		return nil, fmt.Errorf("task: total utilization %.3f outside (0, %d]",
			cfg.TotalUtilization, cfg.N)
	}
	if cfg.MinPeriod <= 0 || cfg.MaxPeriod < cfg.MinPeriod {
		return nil, fmt.Errorf("task: bad period range [%v, %v]", cfg.MinPeriod, cfg.MaxPeriod)
	}
	rng := engine.NewRand(cfg.Seed + 1)
	utils := uuniFast(rng, cfg.N, cfg.TotalUtilization)
	tasks := make([]Task, cfg.N)
	for i, u := range utils {
		period := logUniform(rng, cfg.MinPeriod, cfg.MaxPeriod)
		wcet := time.Duration(u * float64(period))
		if wcet < 2 {
			wcet = 2
		}
		if wcet > period {
			wcet = period
		}
		w := time.Duration(float64(wcet) * GenWindupFraction)
		if w < 1 {
			w = 1
		}
		m := wcet - w
		if m < 1 {
			m = 1
			w = wcet - m
		}
		tasks[i] = Uniform(fmt.Sprintf("%s%d", cfg.NamePrefix, i), m, w, cfg.OptionalLength, cfg.NumOptional, period)
	}
	return NewSet(tasks...)
}

// uuniFast draws n utilizations summing to total (Bini & Buttazzo 2005).
func uuniFast(rng *engine.Rand, n int, total float64) []float64 {
	out := make([]float64, n)
	sum := total
	for i := 0; i < n-1; i++ {
		next := sum * math.Pow(rng.Float64(), 1/float64(n-i-1))
		out[i] = sum - next
		sum = next
	}
	out[n-1] = sum
	return out
}

// logUniform draws a period log-uniformly in [lo, hi].
func logUniform(rng *engine.Rand, lo, hi time.Duration) time.Duration {
	if lo == hi {
		return lo
	}
	r := rng.Float64()
	logLo, logHi := math.Log(float64(lo)), math.Log(float64(hi))
	return time.Duration(math.Exp(logLo + r*(logHi-logLo)))
}
