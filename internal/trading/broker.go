package trading

import "fmt"

// Broker simulates the stock company's order endpoint: it fills bid orders
// for one unit at the ask and ask orders at the bid (paying the spread),
// tracks the position, and marks profit and loss to the mid price. The zero
// value is a flat broker.
type Broker struct {
	cash     float64
	position float64
	lastMid  float64
	trades   int
	waits    int
}

// Execute applies a decision at the quoted tick. Any action other than a
// bid or an ask counts as a wait.
func (b *Broker) Execute(d Decision, t Tick) {
	b.lastMid = t.Mid()
	//rtseed:partial-ok every action other than Bid and Ask is counted as a wait
	switch d.Action {
	case Bid:
		b.cash -= t.Ask
		b.position++
	case Ask:
		b.cash += t.Bid
		b.position--
	default:
		b.waits++
		return
	}
	b.trades++
}

// Position returns the current signed position.
func (b *Broker) Position() float64 { return b.position }

// Trades returns how many orders were filled.
func (b *Broker) Trades() int { return b.trades }

// Waits returns how many decisions were wait-and-see.
func (b *Broker) Waits() int { return b.waits }

// Equity returns cash plus the position marked to the last mid price.
func (b *Broker) Equity() float64 { return b.cash + b.position*b.lastMid }

// String implements fmt.Stringer.
func (b *Broker) String() string {
	return fmt.Sprintf("broker{trades=%d waits=%d pos=%.0f pnl=%+.5f}",
		b.trades, b.waits, b.position, b.Equity())
}
