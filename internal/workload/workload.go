// Package workload generates client populations and market tick streams for
// the cluster simulation from declarative cohort specs, and records them in
// a versioned binary trace format (".rtk") for deterministic replay.
//
// The paper evaluates RT-Seed on a steady synthetic grid; real trading load
// is bursty, heavy-tailed, and regime-shifting. A Spec describes that load
// declaratively: client cohorts (latency class, population weight, an
// inter-arrival process — Poisson, Gamma, or Weibull — whose shape sets the
// burstiness, and heterogeneous (tasks, utilization, period, parallelism)
// profiles) and rate windows over the horizon (market open/close bursts,
// regime shifts, flash-crash spikes).
//
// Determinism contract: every sample is a pure function of (spec, seed,
// client-id) — each client owns a SplitMix64 stream seeded by Mix64 over
// (seed, id) and consumes it in a fixed order, so generation is detflow-clean
// and byte-identical for any worker count. Arrival instants are prefix sums
// of the per-client gap samples folded in id order and warped through the
// window rate profile's inverse CDF; the fold is sequential but consumes no
// state outside the spec, the seed, and the ids.
package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// Class buckets clients by the latency profile of their order flow. The
// values mirror internal/cluster's reporting classes one-for-one so the
// cluster can convert by value.
type Class uint8

const (
	// ClassHFT is high-frequency flow: 5-20ms periods in the builtin
	// population, the heaviest per-client utilization.
	ClassHFT Class = iota
	// ClassAlgo is algorithmic execution: 20-100ms periods.
	ClassAlgo
	// ClassRetail is retail order routing: 100ms-1s periods.
	ClassRetail
)

// NumClasses sizes arrays indexed by Class.
const NumClasses = int(ClassRetail) + 1

// String implements fmt.Stringer with the report labels.
func (c Class) String() string {
	switch c {
	case ClassHFT:
		return "hft"
	case ClassAlgo:
		return "algo"
	case ClassRetail:
		return "retail"
	}
	return fmt.Sprintf("class%d", uint8(c))
}

// parseClass inverts String for the JSON spec form.
func parseClass(s string) (Class, error) {
	switch s {
	case "hft":
		return ClassHFT, nil
	case "algo":
		return ClassAlgo, nil
	case "retail":
		return ClassRetail, nil
	}
	return 0, fmt.Errorf("workload: unknown class %q (want hft, algo, retail)", s)
}

// MarshalJSON encodes the class as its report label.
func (c Class) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

// UnmarshalJSON decodes a report label.
func (c *Class) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := parseClass(s)
	if err != nil {
		return err
	}
	*c = parsed
	return nil
}

// Process selects a cohort's inter-arrival gap distribution. All three are
// sampled mean-normalized to 1; the shape parameter sets the coefficient of
// variation — Gamma and Weibull shapes below 1 give bursty, heavy-tailed
// arrivals, shapes above 1 are smoother than Poisson.
type Process uint8

const (
	// ProcPoisson draws exponential gaps (CV 1).
	ProcPoisson Process = iota
	// ProcGamma draws Gamma(shape) gaps (CV 1/sqrt(shape)).
	ProcGamma
	// ProcWeibull draws Weibull(shape) gaps (heavy right tail for shape < 1).
	ProcWeibull
)

// String implements fmt.Stringer with the spec-file labels.
func (p Process) String() string {
	switch p {
	case ProcPoisson:
		return "poisson"
	case ProcGamma:
		return "gamma"
	case ProcWeibull:
		return "weibull"
	}
	return fmt.Sprintf("process%d", uint8(p))
}

func parseProcess(s string) (Process, error) {
	switch s {
	case "poisson":
		return ProcPoisson, nil
	case "gamma":
		return ProcGamma, nil
	case "weibull":
		return ProcWeibull, nil
	}
	return 0, fmt.Errorf("workload: unknown process %q (want poisson, gamma, weibull)", s)
}

// Dist is an inter-arrival process with its shape parameter.
type Dist struct {
	Process Process
	// Shape parameterizes Gamma/Weibull; Poisson ignores it. Zero defaults
	// to 1 (which makes all three processes Poisson-like in CV).
	Shape float64
}

// distJSON is the spec-file form of Dist.
type distJSON struct {
	Process string  `json:"process"`
	Shape   float64 `json:"shape,omitempty"`
}

// MarshalJSON encodes the process by label.
func (d Dist) MarshalJSON() ([]byte, error) {
	return json.Marshal(distJSON{Process: d.Process.String(), Shape: d.Shape})
}

// UnmarshalJSON decodes the labeled form.
func (d *Dist) UnmarshalJSON(data []byte) error {
	var j distJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	p, err := parseProcess(j.Process)
	if err != nil {
		return err
	}
	d.Process, d.Shape = p, j.Shape
	return nil
}

// shape returns the effective shape with the zero default applied.
func (d Dist) shape() float64 {
	if d.Shape == 0 {
		return 1
	}
	return d.Shape
}

// Duration is a time.Duration that marshals as a parseable string ("20ms")
// in spec files.
type Duration time.Duration

// MarshalJSON encodes the duration as its String form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts either a duration string or a bare nanosecond count.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("workload: bad duration %q: %w", s, err)
		}
		*d = Duration(parsed)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(data, &ns); err != nil {
		return fmt.Errorf("workload: duration must be a string or nanoseconds: %w", err)
	}
	*d = Duration(ns)
	return nil
}

// Cohort is one client class population within a spec. Ranges are inclusive
// two-element [lo, hi] arrays in the JSON form.
type Cohort struct {
	// Name labels the cohort in reports.
	Name string `json:"name"`
	// Class is the latency class admission reports the cohort under.
	Class Class `json:"class"`
	// Weight is the cohort's share of the client population, relative to
	// the other cohorts' weights.
	Weight float64 `json:"weight"`
	// Arrival is the inter-arrival gap process; the gaps are warped through
	// the spec's window rate profile.
	Arrival Dist `json:"arrival"`
	// Tasks bounds the tasks per client.
	Tasks [2]int `json:"tasks"`
	// Util bounds each client's total utilization (uniform draw).
	Util [2]float64 `json:"util"`
	// Period bounds the log-uniform task period distribution.
	Period [2]Duration `json:"period"`
	// Parallel bounds the parallel optional parts per task (np). The
	// cluster simulation runs mandatory and wind-up parts only; np still
	// shapes the task profile the admission analysis prices.
	Parallel [2]int `json:"parallel,omitempty"`
	// Lifetime bounds how long a client stays active after arrival
	// (uniform draw). [0, 0] means active until the horizon.
	Lifetime [2]Duration `json:"lifetime,omitempty"`
}

// Window is one rate regime over a fraction of the horizon. Windows must
// tile [0, 1] contiguously in order.
type Window struct {
	// Name labels the window in per-window report tables.
	Name string `json:"name"`
	// Start and End are fractions of the horizon in [0, 1].
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Rate is the window's relative arrival-rate multiplier (> 0). Client
	// arrivals and synthesized ticks concentrate in high-rate windows.
	Rate float64 `json:"rate"`
}

// Spec declares a workload: cohorts over a windowed rate profile. A Spec is
// horizon-free — windows are fractions — so one spec drives any -horizon.
type Spec struct {
	Name string `json:"name"`
	// Symbols is the symbol-universe size (default 4096, matching the
	// builtin population).
	Symbols int      `json:"symbols,omitempty"`
	Cohorts []Cohort `json:"cohorts"`
	// Windows is the rate profile; empty means one flat window.
	Windows []Window `json:"windows,omitempty"`
}

// DefaultSymbols is the symbol-universe size when a spec leaves it zero,
// equal to the builtin population's universe.
const DefaultSymbols = 4096

// maxSymbols bounds Symbols so replay-file validation can reject garbage.
const maxSymbols = 1 << 24

// withDefaults returns the spec with zero fields resolved.
func (s Spec) withDefaults() Spec {
	if s.Symbols == 0 {
		s.Symbols = DefaultSymbols
	}
	if len(s.Windows) == 0 {
		s.Windows = []Window{{Name: "all", Start: 0, End: 1, Rate: 1}}
	}
	return s
}

// Validate reports the first problem with the spec, after defaults.
func (s Spec) Validate() error {
	s = s.withDefaults()
	if s.Name == "" {
		return fmt.Errorf("workload: spec needs a name")
	}
	if len(s.Name) > maxSectionName {
		return fmt.Errorf("workload: spec name is %d bytes, limit %d", len(s.Name), maxSectionName)
	}
	if s.Symbols < 1 || s.Symbols > maxSymbols {
		return fmt.Errorf("workload: symbols %d outside [1, %d]", s.Symbols, maxSymbols)
	}
	if len(s.Cohorts) == 0 {
		return fmt.Errorf("workload: spec needs at least one cohort")
	}
	totalWeight := 0.0
	for i, c := range s.Cohorts {
		if c.Name == "" {
			return fmt.Errorf("workload: cohort %d needs a name", i)
		}
		if int(c.Class) >= NumClasses {
			return fmt.Errorf("workload: cohort %q: invalid class %d", c.Name, c.Class)
		}
		if c.Weight <= 0 || math.IsInf(c.Weight, 0) || math.IsNaN(c.Weight) {
			return fmt.Errorf("workload: cohort %q: weight %v must be positive and finite", c.Name, c.Weight)
		}
		totalWeight += c.Weight
		if c.Arrival.Process > ProcWeibull {
			return fmt.Errorf("workload: cohort %q: invalid process %d", c.Name, c.Arrival.Process)
		}
		if sh := c.Arrival.Shape; sh < 0 || sh > 64 || math.IsNaN(sh) {
			return fmt.Errorf("workload: cohort %q: shape %v outside [0, 64]", c.Name, sh)
		}
		if c.Tasks[0] < 1 || c.Tasks[1] < c.Tasks[0] || c.Tasks[1] > 64 {
			return fmt.Errorf("workload: cohort %q: tasks range %v outside [1, 64]", c.Name, c.Tasks)
		}
		if !(c.Util[0] > 0) || c.Util[1] < c.Util[0] || c.Util[1] > 16 || math.IsNaN(c.Util[1]) {
			return fmt.Errorf("workload: cohort %q: util range %v outside (0, 16]", c.Name, c.Util)
		}
		if c.Period[0] <= 0 || c.Period[1] < c.Period[0] {
			return fmt.Errorf("workload: cohort %q: bad period range [%v, %v]",
				c.Name, time.Duration(c.Period[0]), time.Duration(c.Period[1]))
		}
		if c.Parallel[0] < 0 || c.Parallel[1] < c.Parallel[0] || c.Parallel[1] > 64 {
			return fmt.Errorf("workload: cohort %q: parallel range %v outside [0, 64]", c.Name, c.Parallel)
		}
		if c.Lifetime[0] < 0 || c.Lifetime[1] < c.Lifetime[0] {
			return fmt.Errorf("workload: cohort %q: bad lifetime range [%v, %v]",
				c.Name, time.Duration(c.Lifetime[0]), time.Duration(c.Lifetime[1]))
		}
	}
	if totalWeight <= 0 || math.IsInf(totalWeight, 0) {
		return fmt.Errorf("workload: cohort weights sum to %v", totalWeight)
	}
	prevEnd := 0.0
	for i, w := range s.Windows {
		if w.Name == "" {
			return fmt.Errorf("workload: window %d needs a name", i)
		}
		if len(w.Name) > maxSectionName {
			return fmt.Errorf("workload: window %d name is %d bytes, limit %d", i, len(w.Name), maxSectionName)
		}
		if w.Start != prevEnd {
			return fmt.Errorf("workload: window %q starts at %v, want %v (windows must tile [0, 1])",
				w.Name, w.Start, prevEnd)
		}
		if !(w.End > w.Start) || w.End > 1 {
			return fmt.Errorf("workload: window %q spans [%v, %v], want ascending within [0, 1]",
				w.Name, w.Start, w.End)
		}
		if !(w.Rate > 0) || math.IsInf(w.Rate, 0) || w.Rate > 1e6 {
			return fmt.Errorf("workload: window %q rate %v outside (0, 1e6]", w.Name, w.Rate)
		}
		prevEnd = w.End
	}
	if prevEnd != 1 {
		return fmt.Errorf("workload: windows end at %v, must tile [0, 1] exactly", prevEnd)
	}
	return nil
}

// ParseSpec decodes and validates a JSON spec.
func ParseSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("workload: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s.withDefaults(), nil
}

// WriteSpec encodes the spec as indented JSON.
func WriteSpec(w io.Writer, s Spec) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	return enc.Encode(s)
}
