// Package trading implements the real-time trading substrate the paper
// motivates RT-Seed with (§I, §II-A): a market-data feed (the mandatory
// part's input), anytime technical and fundamental analyses (the parallel
// optional parts), and a decision rule plus broker (the wind-up part).
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

// The generator's fixed quote shape.
const (
	// feedStart is the initial mid price, a EUR/USD level.
	feedStart = 1.1
	// feedInterval is the tick interval: "this company usually provides 1
	// exchange rate per second" (§V-A).
	feedInterval = time.Second
	// feedSpread is the quoted spread, one pip.
	feedSpread = 0.0001
)

// FeedConfig parameterizes the synthetic EUR/USD generator. Both fields are
// taken as given: a zero Volatility gives a flat mid, and 0 is a seed like
// any other.
type FeedConfig struct {
	// Seed seeds the generator.
	Seed uint64
	// Volatility is the per-tick log-return standard deviation.
	Volatility float64
}

// Feed is a deterministic driftless geometric-Brownian-motion quote
// generator.
type Feed struct {
	vol float64
	rng *engine.Rand
	mid float64
	seq int
}

// NewFeed builds a feed. It returns an error for a negative or non-finite
// Volatility, which would turn every quote into NaN or infinity.
func NewFeed(cfg FeedConfig) (*Feed, error) {
	if v := cfg.Volatility; v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return nil, fmt.Errorf("trading: invalid feed volatility %v", v)
	}
	return &Feed{vol: cfg.Volatility, rng: engine.NewRand(cfg.Seed), mid: feedStart}, nil
}

// Next returns the next tick.
func (f *Feed) Next() Tick {
	f.mid *= math.Exp(f.vol * f.rng.NormFloat64())
	t := Tick{
		Seq: f.seq,
		At:  time.Duration(f.seq) * feedInterval,
		Bid: f.mid - feedSpread/2,
		Ask: f.mid + feedSpread/2,
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
