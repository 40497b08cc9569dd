package overhead

import (
	"time"

	"rtseed/internal/assign"
	"rtseed/internal/machine"
	"rtseed/internal/sweep"
)

// Point is one plotted point: mean overhead at a number of parallel
// optional parts.
type Point struct {
	NumParts int
	Mean     time.Duration
}

// Series is one curve of a figure: one assignment policy swept over np.
type Series struct {
	Policy assign.Policy
	Points []Point
}

// FigureData is one subfigure of the paper: a (overhead kind, load) pair
// with one series per assignment policy.
type FigureData struct {
	Kind   Kind
	Load   machine.Load
	Series []Series
}

// SweepConfig parameterizes a full figure regeneration. Every figure has one
// series per assignment policy (assign.Policies).
type SweepConfig struct {
	// NumParts defaults to the paper's sweep {4,...,228}.
	NumParts []int
	// Jobs per measurement (default 100; reduce for quick runs).
	Jobs int
	// Seed for machine jitter.
	Seed uint64
	// Workers bounds the number of sweep cells simulated concurrently
	// (default GOMAXPROCS). Every cell owns its engine and seed, so the
	// figures are bit-identical for any worker count.
	Workers int
}

func (c *SweepConfig) fillDefaults() {
	if len(c.NumParts) == 0 {
		c.NumParts = NumPartsSweep()
	}
	if c.Jobs == 0 {
		c.Jobs = 100
	}
}

// Quick trims the sweep for a fast sanity run: three part counts and at most
// 10 jobs per measurement. It is the -quick preset of rtseed-overhead and
// rtseed-repro.
func (c SweepConfig) Quick() SweepConfig {
	c.NumParts = []int{4, 57, 228}
	if c.Jobs == 0 || c.Jobs > 10 {
		c.Jobs = 10
	}
	return c
}

// SweepLoad runs the full policy × np sweep under one load, returning every
// figure's data for that load. All four overheads are measured in the same
// runs, exactly as on the real testbed.
func SweepLoad(cfg SweepConfig, load machine.Load) ([]FigureData, error) {
	return sweepLoads(cfg, []machine.Load{load})
}

// SweepAll regenerates every subfigure of Figs. 10-13: all four overheads
// under all three loads.
func SweepAll(cfg SweepConfig) ([]FigureData, error) {
	return sweepLoads(cfg, machine.Loads())
}

// sweepLoads fans every (load, policy, np) cell out over the worker pool —
// each cell is one deterministic overhead.Run measuring all four kinds —
// and reassembles the figures in canonical order: loads outer, then the
// four kinds, one series per policy, one point per np.
func sweepLoads(cfg SweepConfig, loads []machine.Load) ([]FigureData, error) {
	cfg.fillDefaults()
	policies := assign.Policies()
	type cell struct {
		load machine.Load
		pol  assign.Policy
		np   int
	}
	cells := make([]cell, 0, len(loads)*len(policies)*len(cfg.NumParts))
	for _, load := range loads {
		for _, pol := range policies {
			for _, np := range cfg.NumParts {
				cells = append(cells, cell{load: load, pol: pol, np: np})
			}
		}
	}
	meas, err := sweep.Map(cfg.Workers, len(cells), func(i int) (*Measurement, error) {
		c := cells[i]
		return Run(Config{
			Load:     c.load,
			Policy:   c.pol,
			NumParts: c.np,
			Jobs:     cfg.Jobs,
			Seed:     cfg.Seed,
		})
	})
	if err != nil {
		return nil, err
	}

	out := make([]FigureData, 0, len(loads)*len(Kinds()))
	idx := 0
	for _, load := range loads {
		base := len(out)
		for _, kind := range Kinds() {
			out = append(out, FigureData{Kind: kind, Load: load})
		}
		for _, pol := range policies {
			points := make(map[Kind][]Point, len(Kinds()))
			for _, np := range cfg.NumParts {
				m := meas[idx]
				idx++
				for _, kind := range Kinds() {
					points[kind] = append(points[kind], Point{NumParts: np, Mean: m.Mean(kind)})
				}
			}
			for ki, kind := range Kinds() {
				out[base+ki].Series = append(out[base+ki].Series, Series{Policy: pol, Points: points[kind]})
			}
		}
	}
	return out, nil
}

// ByKindLoad finds the figure data for a (kind, load) pair, or nil.
func ByKindLoad(figs []FigureData, kind Kind, load machine.Load) *FigureData {
	for i := range figs {
		if figs[i].Kind == kind && figs[i].Load == load {
			return &figs[i]
		}
	}
	return nil
}

// SeriesFor returns the series of a policy within a figure, or nil.
func (f *FigureData) SeriesFor(p assign.Policy) *Series {
	for i := range f.Series {
		if f.Series[i].Policy == p {
			return &f.Series[i]
		}
	}
	return nil
}

// MeanOver averages a series' points (the per-figure scalar used in shape
// assertions).
func (s *Series) MeanOver() time.Duration {
	if len(s.Points) == 0 {
		return 0
	}
	var sum time.Duration
	for _, p := range s.Points {
		sum += p.Mean
	}
	return sum / time.Duration(len(s.Points))
}
