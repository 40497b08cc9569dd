package workload

import (
	"errors"
	"fmt"
	"time"

	"rtseed/internal/task"
)

// ClientParams are the cheap-to-draw parameters of one client — everything
// admission routing, the rejection watermark, and per-window reporting need
// before paying for task-set generation, and everything Materialize needs to
// rebuild the exact task set. The fields round-trip bit-exactly through the
// .rtk client section, which is what makes a replayed trace reproduce the
// generating run's admission funnel verbatim.
type ClientParams struct {
	ID     int
	Class  Class
	Cohort uint8
	Symbol uint32
	NTasks int
	// Parallel is the parallel optional parts per task (np).
	Parallel int
	// Util is the client's total target utilization.
	Util float64
	// Arrival is when the client's tasks start releasing jobs; zero means
	// active from the start of the run.
	Arrival time.Duration
	// Lifetime bounds how long the client stays active after Arrival; zero
	// means active until the horizon.
	Lifetime time.Duration
	// PeriodMin and PeriodMax bound the log-uniform period draw inside
	// Materialize.
	PeriodMin, PeriodMax time.Duration
	// GenSeed seeds the task-set generator.
	GenSeed uint64
}

// Client is one materialized tenant: its parameters plus the generated
// periodic task set.
type Client struct {
	ClientParams
	Set *task.Set
}

// ResolvedWindow is one spec window with the horizon applied — the unit of
// the per-window report tables.
type ResolvedWindow struct {
	Name       string
	Start, End time.Duration
	Rate       float64
}

// Source is a deterministic client population: the cluster admission loop
// draws cheap parameters per id, materializes only the clients the
// rejection watermark lets through, and reports service per window.
type Source interface {
	// Name labels the population in reports.
	Name() string
	// Len is the number of offered clients.
	Len() int
	// Params returns client id's parameters. Calls must be cheap; the
	// admission watermark consults Util before Materialize is paid for.
	Params(id int) ClientParams
	// Windows returns the population's rate windows in time order, or nil
	// for an unwindowed population.
	Windows() []ResolvedWindow
}

// Materialize generates a client's task set from its parameters. Task names
// carry the client id ("c12.0"), keeping names unique fleet-wide.
func Materialize(p ClientParams) (Client, error) {
	optLen := time.Duration(0)
	if p.Parallel > 0 {
		// Parallel optional parts sized to an eighth of the shortest
		// period: enough to shape the profile, derived from the params
		// alone so replay regenerates the identical set.
		optLen = p.PeriodMin / 8
	}
	set, err := task.Generate(task.GenConfig{
		N:                p.NTasks,
		TotalUtilization: p.Util,
		MinPeriod:        p.PeriodMin,
		MaxPeriod:        p.PeriodMax,
		NumOptional:      p.Parallel,
		OptionalLength:   optLen,
		Seed:             p.GenSeed,
		NamePrefix:       fmt.Sprintf("c%d.", p.ID),
	})
	if err != nil {
		return Client{}, err
	}
	return Client{ClientParams: p, Set: set}, nil
}

// ClassPeriodRange bounds the builtin population's log-uniform period
// distribution per class.
func ClassPeriodRange(c Class) (lo, hi time.Duration) {
	switch c {
	case ClassHFT:
		return 5 * time.Millisecond, 20 * time.Millisecond
	case ClassAlgo:
		return 20 * time.Millisecond, 100 * time.Millisecond
	case ClassRetail:
		return 100 * time.Millisecond, time.Second
	}
	panic("workload: invalid class")
}

// ClassUtilRange bounds the builtin population's total-utilization draw per
// class.
func ClassUtilRange(c Class) (lo, hi float64) {
	switch c {
	case ClassHFT:
		return 0.08, 0.45
	case ClassAlgo:
		return 0.05, 0.35
	case ClassRetail:
		return 0.02, 0.25
	}
	panic("workload: invalid class")
}

// Builtin is the default steady population the cluster layer shipped with:
// 20% HFT / 30% algo / 50% retail, class-banded periods and utilizations,
// 1-3 tasks per client, 4096 symbols, every client active from time zero.
// Params reproduces the historical drawClient stream draw-for-draw, so the
// default cluster population is byte-identical to the pre-workload layer.
type Builtin struct {
	seed uint64
	n    int
}

// NewBuiltin returns the builtin population of n clients under seed.
func NewBuiltin(seed uint64, n int) *Builtin { return &Builtin{seed: seed, n: n} }

// Name implements Source.
func (b *Builtin) Name() string { return "builtin" }

// Len implements Source.
func (b *Builtin) Len() int { return b.n }

// Windows implements Source: the builtin population is unwindowed.
func (b *Builtin) Windows() []ResolvedWindow { return nil }

// Params implements Source. The draw order (class roll, symbol, task count,
// utilization, generator seed) is the legacy drawClient sequence over the
// stream seeded by Mix64(seed, id).
func (b *Builtin) Params(id int) ClientParams {
	s := NewStream(b.seed, uint64(id))
	p := ClientParams{ID: id}
	roll := s.Float64()
	switch {
	case roll < 0.2:
		p.Class = ClassHFT
	case roll < 0.5:
		p.Class = ClassAlgo
	default:
		p.Class = ClassRetail
	}
	p.Cohort = uint8(p.Class)
	p.Symbol = uint32(s.Intn(DefaultSymbols))
	p.NTasks = 1 + s.Intn(3)
	lo, hi := ClassUtilRange(p.Class)
	p.Util = s.Uniform(lo, hi)
	p.GenSeed = s.Uint64()
	p.PeriodMin, p.PeriodMax = ClassPeriodRange(p.Class)
	return p
}

// SpecSource is a compiled spec: the full parameter table of every client,
// with window-warped arrival instants. Compiling is one sequential pass —
// each client's samples come from its own stream, and the arrival fold
// consumes them in id order.
type SpecSource struct {
	spec    Spec
	seed    uint64
	horizon time.Duration
	params  []ClientParams
	profile *rateProfile
}

// errEmptyWindow is wrapped by Compile's error for a window too narrow to
// span a nanosecond at the horizon; a recorded trace could not carry it.
var errEmptyWindow = errors.New("workload: empty window")

// CompileConfig parameterizes spec compilation.
type CompileConfig struct {
	// Clients is the population size.
	Clients int
	// Seed keys every sample stream.
	Seed uint64
	// Horizon resolves the spec's fractional windows to instants.
	Horizon time.Duration
}

// Compile validates the spec and generates the client parameter table.
func Compile(spec Spec, cfg CompileConfig) (*SpecSource, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	if cfg.Clients < 0 {
		return nil, fmt.Errorf("workload: negative client count %d", cfg.Clients)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("workload: non-positive horizon %v", cfg.Horizon)
	}
	src := &SpecSource{
		spec:    spec,
		seed:    cfg.Seed,
		horizon: cfg.Horizon,
		params:  make([]ClientParams, cfg.Clients),
		profile: newRateProfile(spec.Windows, cfg.Horizon),
	}
	for _, w := range src.profile.windows {
		if w.End <= w.Start {
			return nil, fmt.Errorf("%w: %q spans no time at horizon %v", errEmptyWindow, w.Name, cfg.Horizon)
		}
	}

	totalWeight := 0.0
	for _, c := range spec.Cohorts {
		totalWeight += c.Weight
	}

	// Pass 1: draw every client's parameters and its cohort-local gap.
	gaps := make([]float64, cfg.Clients)
	sums := make([]float64, len(spec.Cohorts))
	for id := 0; id < cfg.Clients; id++ {
		s := NewStream(Mix64(cfg.Seed, domainClient), uint64(id))
		roll := s.Float64() * totalWeight
		ci := len(spec.Cohorts) - 1
		acc := 0.0
		for i, c := range spec.Cohorts {
			acc += c.Weight
			if roll < acc {
				ci = i
				break
			}
		}
		c := spec.Cohorts[ci]
		p := ClientParams{
			ID:        id,
			Class:     c.Class,
			Cohort:    uint8(ci),
			Symbol:    uint32(s.Intn(spec.Symbols)),
			NTasks:    s.IntRange(c.Tasks[0], c.Tasks[1]),
			Parallel:  s.IntRange(c.Parallel[0], c.Parallel[1]),
			Util:      s.Uniform(c.Util[0], c.Util[1]),
			PeriodMin: time.Duration(c.Period[0]),
			PeriodMax: time.Duration(c.Period[1]),
			Lifetime:  s.DurRange(time.Duration(c.Lifetime[0]), time.Duration(c.Lifetime[1])),
		}
		gaps[id] = s.Gap(c.Arrival)
		sums[ci] += gaps[id]
		p.GenSeed = s.Uint64()
		src.params[id] = p
	}

	// Pass 2: fold gaps into arrival instants. Within each cohort the
	// prefix sum of gaps, normalized by the cohort's total, is the client's
	// mass fraction; the rate profile's inverse CDF warps mass into time,
	// so high-rate windows receive proportionally more arrivals while the
	// gap distribution's CV sets the clustering between neighbors.
	counts := make([]int, len(spec.Cohorts))
	for id := range src.params {
		counts[src.params[id].Cohort]++
	}
	prefix := make([]float64, len(spec.Cohorts))
	for id := range src.params {
		ci := src.params[id].Cohort
		prefix[ci] += gaps[id]
		if sums[ci] > 0 {
			n := float64(counts[ci])
			x := prefix[ci] / sums[ci] * n / (n + 1)
			src.params[id].Arrival = src.profile.at(x)
		}
	}
	return src, nil
}

// Name implements Source.
func (s *SpecSource) Name() string { return s.spec.Name }

// Len implements Source.
func (s *SpecSource) Len() int { return len(s.params) }

// Params implements Source.
func (s *SpecSource) Params(id int) ClientParams { return s.params[id] }

// Windows implements Source.
func (s *SpecSource) Windows() []ResolvedWindow { return s.profile.windows }

// Spec returns the compiled spec (defaults resolved).
func (s *SpecSource) Spec() Spec { return s.spec }

// Seed returns the compilation seed.
func (s *SpecSource) Seed() uint64 { return s.seed }

// Horizon returns the compilation horizon.
func (s *SpecSource) Horizon() time.Duration { return s.horizon }
