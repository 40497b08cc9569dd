package trading

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"rtseed/internal/workload"
)

// ReplayFeed replays a recorded tick history — the bridge from the
// synthetic generator to real market data. It implements Source, so the
// pipeline consumes it exactly like the generator or the network feed.
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
// as a looping feed, restricted to one symbol's quotes when symbol >= 0.
// Looping guarantees a consumer never starves: every configured job gets a
// quote.
func NewTraceReplay(tr *workload.Trace, symbol int) (*ReplayFeed, error) {
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

// ReadCSV parses a tick history in the format
//
//	seq,at_ns,bid,ask
//
// with an optional header row (detected by a non-numeric first field).
func ReadCSV(r io.Reader) ([]Tick, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	var out []Tick
	row := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trading: csv row %d: %w", row, err)
		}
		row++
		seq, err := strconv.Atoi(rec[0])
		if err != nil {
			if row == 1 {
				continue // header
			}
			return nil, fmt.Errorf("trading: csv row %d: seq: %w", row, err)
		}
		atNs, err := strconv.ParseInt(rec[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trading: csv row %d: at_ns: %w", row, err)
		}
		bid, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("trading: csv row %d: bid: %w", row, err)
		}
		ask, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			return nil, fmt.Errorf("trading: csv row %d: ask: %w", row, err)
		}
		if ask <= bid {
			return nil, fmt.Errorf("trading: csv row %d: crossed quote", row)
		}
		out = append(out, Tick{Seq: seq, At: time.Duration(atNs), Bid: bid, Ask: ask})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("trading: csv contains no ticks")
	}
	return out, nil
}

// WriteCSV writes a tick history in the ReadCSV format, with a header.
func WriteCSV(w io.Writer, ticks []Tick) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"seq", "at_ns", "bid", "ask"}); err != nil {
		return err
	}
	for _, t := range ticks {
		rec := []string{
			strconv.Itoa(t.Seq),
			strconv.FormatInt(int64(t.At), 10),
			strconv.FormatFloat(t.Bid, 'f', -1, 64),
			strconv.FormatFloat(t.Ask, 'f', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

var _ Source = (*ReplayFeed)(nil)
