package trading

import "fmt"

// Action is a trading decision: bid (buy), ask (sell), or the wait-and-see
// attitude (no trade) — the three outcomes of the paper's wind-up part
// (§II-A).
type Action int

const (
	// Wait takes no position.
	Wait Action = iota + 1
	// Bid buys at the ask.
	Bid
	// Ask sells at the bid.
	Ask
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case Wait:
		return "wait"
	case Bid:
		return "bid"
	case Ask:
		return "ask"
	default:
		return "unknown-action"
	}
}

// Decision is the wind-up part's output for one job.
type Decision struct {
	Action Action
	// Score is the aggregated confidence-weighted signal in [-1, 1].
	Score float64
	// QoS is the mean confidence of the advice used: the quality of
	// service the parallel optional parts achieved for this job.
	QoS float64
}

// The decision rule's thresholds.
const (
	// threshold is the minimum |score| to trade instead of waiting.
	threshold = 0.15
	// minQoS is the minimum mean confidence to trade at all; below it the
	// rule always waits: low-QoS jobs produce deliberately conservative
	// decisions.
	minQoS = 0.05
)

// Decide aggregates indicator advice into a trading decision. The wind-up
// part "collects the results from parallel optional parts to make a trading
// decision" (§II-A); advice from terminated parts arrives with reduced
// confidence and discarded parts contribute nothing.
func Decide(advice []Advice) Decision {
	if len(advice) == 0 {
		return Decision{Action: Wait}
	}
	var weighted, weight, conf float64
	for _, a := range advice {
		weighted += a.Signal * a.Confidence
		weight += a.Confidence
		conf += a.Confidence
	}
	qos := conf / float64(len(advice))
	score := 0.0
	if weight > 0 {
		score = weighted / weight
	}
	d := Decision{Score: score, QoS: qos, Action: Wait}
	if qos < minQoS {
		return d
	}
	switch {
	case score >= threshold:
		d.Action = Bid
	case score <= -threshold:
		d.Action = Ask
	}
	return d
}

// String implements fmt.Stringer.
func (d Decision) String() string {
	return fmt.Sprintf("%v(score=%.3f,qos=%.2f)", d.Action, d.Score, d.QoS)
}
