package trading

import (
	"fmt"
	"io"
	"math"

	"rtseed/internal/workload"
)

// ReplayFeed replays a recorded tick history — the bridge from the
// synthetic generator to real market data. It implements Source, so the
// pipeline consumes it exactly like the generator.
type ReplayFeed struct {
	ticks []Tick
	next  int
	// Loop restarts the history when it is exhausted instead of erroring.
	Loop bool
}

// NewReplayFeed wraps a tick history.
func NewReplayFeed(ticks []Tick) (*ReplayFeed, error) {
	if len(ticks) == 0 {
		return nil, fmt.Errorf("trading: replay feed needs at least one tick")
	}
	out := make([]Tick, len(ticks))
	copy(out, ticks)
	return &ReplayFeed{ticks: out}, nil
}

// NextTick implements Source.
func (f *ReplayFeed) NextTick() (Tick, error) {
	if f.next >= len(f.ticks) {
		if !f.Loop {
			return Tick{}, io.EOF
		}
		f.next = 0
	}
	t := f.ticks[f.next]
	f.next++
	return t, nil
}

// Len returns the number of recorded ticks.
func (f *ReplayFeed) Len() int { return len(f.ticks) }

// NewTraceReplay replays the tick section of a decoded .rtk workload trace
// as a looping feed: all symbols' quotes when symbol is -1, else one
// symbol's. Symbols are uint32s, so any other value outside
// [-1, math.MaxUint32] is an error. Looping guarantees a consumer never
// starves: every configured job gets a quote.
func NewTraceReplay(tr *workload.Trace, symbol int) (*ReplayFeed, error) {
	if symbol < -1 || int64(symbol) > math.MaxUint32 {
		return nil, fmt.Errorf("trading: symbol %d outside [-1, %d]", symbol, uint32(math.MaxUint32))
	}
	ticks := make([]Tick, 0, len(tr.Ticks))
	for _, t := range tr.Ticks {
		if symbol >= 0 && t.Symbol != uint32(symbol) {
			continue
		}
		ticks = append(ticks, Tick{Seq: len(ticks), At: t.At, Bid: t.Bid, Ask: t.Ask})
	}
	if len(ticks) == 0 {
		return nil, fmt.Errorf("trading: no ticks for symbol %d", symbol)
	}
	return &ReplayFeed{ticks: ticks, Loop: true}, nil
}

var _ Source = (*ReplayFeed)(nil)
