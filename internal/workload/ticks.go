package workload

import "math"

// SynthTicks synthesizes a deterministic market tick stream for the compiled
// spec: count quotes placed by the rate profile's inverse mass-CDF (so
// high-rate windows are tick-dense, matching the arrival warping), each
// assigned a symbol and a price from per-tick SplitMix64 streams under the
// domainTick key. Prices follow a per-symbol geometric random walk whose
// step variance scales with the window rate in force — spike windows are
// volatile — and whose drift turns negative while the rate exceeds 1, so a
// flash-crash window shows falling prints. Every tick is a pure function of
// (spec, seed, tick index): symbol walks are reconstructed from per-index
// streams, never from shared mutable state.
func (s *SpecSource) SynthTicks(count int) []Tick {
	if count <= 0 {
		return nil
	}
	ticks := make([]Tick, count)
	// walkStep tracks each symbol's accumulated log-price so the walk is
	// continuous per symbol while each step still comes from the tick's own
	// stream.
	logPrice := make(map[uint32]float64, 64)
	for i := 0; i < count; i++ {
		st := NewStream(Mix64(s.seed, domainTick), uint64(i))
		at := s.profile.at((float64(i) + 0.5) / float64(count))
		// Concentrate ticks on a small hot set of symbols (quotes cluster on
		// liquid names) while covering the universe's low end.
		sym := uint32(st.Intn(minInt(s.spec.Symbols, 64)))
		rate := s.profile.rateAt(at)
		// Volatility scales with sqrt(rate); drift is pulled down by the
		// excess rate so bursts print lower.
		sigma := 0.0008 * math.Sqrt(rate)
		drift := -0.0004 * (rate - 1)
		logPrice[sym] += drift + sigma*st.Norm()
		// The mid is floored at one cent, so a window rate high enough to
		// drive the walk toward zero still prints a positive bid.
		mid := math.Max(0.01, 100*math.Exp(logPrice[sym]))
		// Spread widens with volatility, floored at one tenth of a cent and
		// capped at the mid.
		spread := math.Max(0.001, mid*0.0002*rate)
		if spread > mid {
			spread = mid
		}
		ticks[i] = Tick{
			Symbol: sym,
			At:     at,
			Bid:    mid - spread/2,
			Ask:    mid + spread/2,
		}
	}
	return ticks
}

// Trace records the compiled population plus a synthesized tick stream as a
// replayable trace.
func (s *SpecSource) Trace(tickCount int) *Trace {
	tr := &Trace{
		Meta: Meta{
			Name:    s.spec.Name,
			Seed:    s.seed,
			Horizon: s.horizon,
			Clients: len(s.params),
			Symbols: s.spec.Symbols,
			Windows: s.profile.windows,
		},
		Clients: append([]ClientParams(nil), s.params...),
		Ticks:   s.SynthTicks(tickCount),
	}
	return tr
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
