package trading

import "fmt"

// Pipeline is the end-to-end real-time trading application of the paper's
// motivation (§II-A), shaped to plug into the RT-Seed middleware callbacks:
//
//	mandatory part — OnMandatory ingests the next exchange-rate tick;
//	parallel optional part k — OnOptional runs indicator k with the
//	progress its optional part achieved before the optional deadline;
//	wind-up part — OnWindup aggregates the advice into a decision and
//	sends the order (or waits).
//
// The pipeline itself is middleware-agnostic: the callbacks can also be
// driven by the wall-clock runtime or called directly in tests.
type Pipeline struct {
	source     Source
	indicators []Indicator
	broker     Broker

	prices    []float64
	advice    []Advice
	ticks     []Tick
	decisions []Decision
	equity    []float64
	history   int

	sourceErrors int
}

// Source supplies ticks to a pipeline: the synthetic Feed or a recorded
// ReplayFeed.
type Source interface {
	// NextTick returns the next quote. An error marks the source as
	// degraded: the pipeline reuses the last known tick for that job.
	NextTick() (Tick, error)
}

// NewPipeline wires a tick source and an indicator battery to the decision
// rule and a flat broker of its own. The retained price window is the
// largest indicator MinHistory, doubled.
func NewPipeline(source Source, indicators []Indicator) (*Pipeline, error) {
	if source == nil {
		return nil, fmt.Errorf("trading: pipeline needs a tick source")
	}
	if len(indicators) == 0 {
		return nil, fmt.Errorf("trading: pipeline needs at least one indicator")
	}
	history := 0
	for _, ind := range indicators {
		if h := ind.MinHistory() * 2; h > history {
			history = h
		}
	}
	return &Pipeline{
		source:     source,
		indicators: indicators,
		advice:     make([]Advice, len(indicators)),
		history:    history,
	}, nil
}

// NumOptional returns the number of parallel optional parts the pipeline
// needs: one per indicator.
func (p *Pipeline) NumOptional() int { return len(p.indicators) }

// OnMandatory is the mandatory part's application work: ingest the tick.
// When the source errors (an exhausted replay), the pipeline degrades by
// reusing the last tick; SourceErrors counts the incidents.
func (p *Pipeline) OnMandatory(job int) {
	t, err := p.source.NextTick()
	if err != nil {
		p.sourceErrors++
		if len(p.ticks) == 0 {
			return // nothing to degrade to yet
		}
		t = p.ticks[len(p.ticks)-1]
	}
	p.ticks = append(p.ticks, t)
	p.prices = append(p.prices, t.Mid())
	if len(p.prices) > p.history {
		p.prices = p.prices[len(p.prices)-p.history:]
	}
	// Reset the advice vector: parts that are discarded this job
	// contribute nothing.
	for i := range p.advice {
		p.advice[i] = Advice{}
	}
}

// OnOptional is parallel optional part k's application work: evaluate
// indicator k at the achieved progress.
func (p *Pipeline) OnOptional(job, k int, progress float64) {
	if k < 0 || k >= len(p.indicators) {
		return
	}
	p.advice[k] = p.indicators[k].Evaluate(p.prices, progress)
}

// OnWindup is the wind-up part's application work: decide and execute.
func (p *Pipeline) OnWindup(job int, progress []float64) {
	d := Decide(p.advice)
	p.decisions = append(p.decisions, d)
	if len(p.ticks) > 0 {
		p.broker.Execute(d, p.ticks[len(p.ticks)-1])
	}
	p.equity = append(p.equity, p.broker.Equity())
}

// Decisions returns the decision history.
func (p *Pipeline) Decisions() []Decision {
	out := make([]Decision, len(p.decisions))
	copy(out, p.decisions)
	return out
}

// MeanQoS returns the mean decision QoS so far.
func (p *Pipeline) MeanQoS() float64 {
	if len(p.decisions) == 0 {
		return 0
	}
	sum := 0.0
	for _, d := range p.decisions {
		sum += d.QoS
	}
	return sum / float64(len(p.decisions))
}

// Broker returns the pipeline's broker.
func (p *Pipeline) Broker() *Broker { return &p.broker }

// EquityCurve returns the mark-to-mid equity after each job.
func (p *Pipeline) EquityCurve() []float64 {
	out := make([]float64, len(p.equity))
	copy(out, p.equity)
	return out
}

// Metrics summarizes the run so far.
func (p *Pipeline) Metrics() Metrics {
	return ComputeMetrics(p.equity, p.decisions)
}

// SourceErrors counts ticks the source failed to deliver (the pipeline
// degraded to the previous quote).
func (p *Pipeline) SourceErrors() int { return p.sourceErrors }
