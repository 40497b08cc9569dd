// Package trading implements the real-time trading substrate the paper
// motivates RT-Seed with (§I, §II-A): a market-data feed (the mandatory
// part's input), anytime technical and fundamental analyses (the parallel
// optional parts), and a decision engine plus broker (the wind-up part).
// The feed is a deterministic synthetic substitute for the OANDA Japan
// stream the paper uses — same 1 tick/second rate, same pipeline shape;
// see DESIGN.md §2.
package trading

import (
	"fmt"
	"math"
	"time"

	"rtseed/internal/engine"
)

// Tick is one exchange-rate quote.
type Tick struct {
	// Seq is the tick's sequence number, starting at 0.
	Seq int
	// At is the tick's timestamp since feed start.
	At time.Duration
	// Bid and Ask are the two-way quote; Ask > Bid.
	Bid, Ask float64
}

// Mid returns the mid price.
func (t Tick) Mid() float64 { return (t.Bid + t.Ask) / 2 }

// Spread returns the quoted spread.
func (t Tick) Spread() float64 { return t.Ask - t.Bid }

// FeedConfig parameterizes the synthetic EUR/USD generator.
type FeedConfig struct {
	// Start is the initial mid price (default 1.1000, a EUR/USD level).
	Start float64
	// Interval is the tick interval (default 1s — "this company usually
	// provides 1 exchange rate per second", §V-A).
	Interval time.Duration
	// Volatility is the per-tick log-return standard deviation
	// (default 0.0002).
	Volatility float64
	// Drift is the per-tick log-return drift (default 0).
	Drift float64
	// Spread is the quoted spread (default 0.0001, one pip).
	Spread float64
	// RegimeEvery flips the drift sign every this many ticks to create
	// trending and mean-reverting phases (default 500; 0 disables).
	RegimeEvery int
	// Seed seeds the generator.
	Seed uint64
}

func (c *FeedConfig) fillDefaults() {
	if c.Start == 0 {
		c.Start = 1.1
	}
	if c.Interval == 0 {
		c.Interval = time.Second
	}
	if c.Volatility == 0 {
		c.Volatility = 0.0002
	}
	if c.Spread == 0 {
		c.Spread = 0.0001
	}
	if c.RegimeEvery == 0 {
		c.RegimeEvery = 500
	}
	if c.Seed == 0 {
		c.Seed = 0xfeed
	}
}

// Feed is a deterministic geometric-Brownian-motion quote generator with
// drift regimes.
type Feed struct {
	cfg  FeedConfig
	rng  *engine.Rand
	mid  float64
	seq  int
	sign float64
}

// NewFeed builds a feed. It returns an error for nonsensical parameters,
// including a non-finite Start, Volatility, Drift or Spread, which would
// turn every quote into NaN or infinity.
func NewFeed(cfg FeedConfig) (*Feed, error) {
	cfg.fillDefaults()
	if cfg.Start <= 0 || cfg.Volatility < 0 || cfg.Spread < 0 || cfg.Interval <= 0 ||
		!finite(cfg.Start, cfg.Volatility, cfg.Drift, cfg.Spread) {
		return nil, fmt.Errorf("trading: invalid feed config %+v", cfg)
	}
	return &Feed{cfg: cfg, rng: engine.NewRand(cfg.Seed), mid: cfg.Start, sign: 1}, nil
}

// finite reports whether every x is neither NaN nor infinite.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Next returns the next tick.
func (f *Feed) Next() Tick {
	if f.cfg.RegimeEvery > 0 && f.seq > 0 && f.seq%f.cfg.RegimeEvery == 0 {
		f.sign = -f.sign
	}
	ret := f.cfg.Drift*f.sign + f.cfg.Volatility*f.rng.NormFloat64()
	f.mid *= math.Exp(ret)
	t := Tick{
		Seq: f.seq,
		At:  time.Duration(f.seq) * f.cfg.Interval,
		Bid: f.mid - f.cfg.Spread/2,
		Ask: f.mid + f.cfg.Spread/2,
	}
	f.seq++
	return t
}

// Take returns the next n ticks.
func (f *Feed) Take(n int) []Tick {
	out := make([]Tick, n)
	for i := range out {
		out[i] = f.Next()
	}
	return out
}

// NextTick implements Source: the generator never errors.
func (f *Feed) NextTick() (Tick, error) { return f.Next(), nil }

var _ Source = (*Feed)(nil)
