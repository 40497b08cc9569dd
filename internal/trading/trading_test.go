package trading

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestFeedDeterministicAndSane(t *testing.T) {
	a, err := NewFeed(FeedConfig{Seed: 42, Volatility: 0.0002})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewFeed(FeedConfig{Seed: 42, Volatility: 0.0002})
	for i := 0; i < 500; i++ {
		ta, tb := a.Next(), b.Next()
		if ta != tb {
			t.Fatal("same seed must give the same tick stream")
		}
		if ta.Seq != i {
			t.Fatalf("seq %d, want %d", ta.Seq, i)
		}
		if ta.At != time.Duration(i)*time.Second {
			t.Fatalf("tick %d at %v, want 1s cadence", i, ta.At)
		}
		if ta.Ask <= ta.Bid {
			t.Fatalf("crossed quote: bid=%v ask=%v", ta.Bid, ta.Ask)
		}
		if ta.Mid() <= 0 {
			t.Fatalf("non-positive mid %v", ta.Mid())
		}
	}
}

func TestFeedValidation(t *testing.T) {
	if _, err := NewFeed(FeedConfig{Volatility: -0.1}); err == nil {
		t.Fatal("negative volatility accepted")
	}
}

// TestFeedRejectsNonFinite: a NaN or infinite volatility would make every
// quote NaN or infinite.
func TestFeedRejectsNonFinite(t *testing.T) {
	for _, vol := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewFeed(FeedConfig{Volatility: vol}); err == nil {
			t.Errorf("NewFeed(Volatility: %v) accepted", vol)
		}
	}
}

// TestFeedZeroVolatilityIsFlat: a zero volatility is taken literally, not
// read as a default, so the mid never moves.
func TestFeedZeroVolatilityIsFlat(t *testing.T) {
	f, err := NewFeed(FeedConfig{Seed: 1, Volatility: 0})
	if err != nil {
		t.Fatal(err)
	}
	first := f.Next()
	for i := 1; i < 1000; i++ {
		if tk := f.Next(); tk.Mid() != first.Mid() {
			t.Fatalf("tick %d: mid %v, want the first tick's %v", i, tk.Mid(), first.Mid())
		}
	}
}

func TestFeedTake(t *testing.T) {
	f, _ := NewFeed(FeedConfig{Seed: 1, Volatility: 0.0002})
	ticks := f.Take(10)
	if len(ticks) != 10 || ticks[9].Seq != 9 {
		t.Fatalf("Take(10) = %d ticks, last seq %d", len(ticks), ticks[len(ticks)-1].Seq)
	}
}

// A falling-knife price history makes Bollinger signal buy; a spike makes
// it signal sell.
func TestBollingerDirection(t *testing.T) {
	b := Bollinger{Window: 20, K: 2}
	prices := make([]float64, 30)
	for i := range prices {
		prices[i] = 100
	}
	prices[len(prices)-1] = 90 // crash below the band
	if adv := b.Evaluate(prices, 1); adv.Signal <= 0 {
		t.Fatalf("price below band should be a buy, got %+v", adv)
	}
	prices[len(prices)-1] = 110 // spike above the band
	if adv := b.Evaluate(prices, 1); adv.Signal >= 0 {
		t.Fatalf("price above band should be a sell, got %+v", adv)
	}
}

func TestRSIDirection(t *testing.T) {
	r := RSI{Window: 14}
	up := make([]float64, 20)
	down := make([]float64, 20)
	for i := range up {
		up[i] = 100 + float64(i)
		down[i] = 100 - float64(i)
	}
	if adv := r.Evaluate(up, 1); adv.Signal >= 0 {
		t.Fatalf("straight rally is overbought: want sell, got %+v", adv)
	}
	if adv := r.Evaluate(down, 1); adv.Signal <= 0 {
		t.Fatalf("straight slide is oversold: want buy, got %+v", adv)
	}
}

func TestTrendFollowersDirection(t *testing.T) {
	up := make([]float64, 60)
	for i := range up {
		up[i] = 100 * math.Exp(0.001*float64(i))
	}
	for _, ind := range []Indicator{SMACross{Fast: 5, Slow: 20}, EMACross{Fast: 12, Slow: 26}, MACD{Fast: 12, Slow: 26, Smooth: 9}} {
		if adv := ind.Evaluate(up, 1); adv.Signal <= 0 {
			t.Errorf("%s: uptrend should be a buy, got %+v", ind.Name(), adv)
		}
	}
}

// The anytime contract: confidence never exceeds progress, and zero/partial
// progress degrades gracefully rather than failing.
func TestPropertyAnytimeContract(t *testing.T) {
	indicators := append(DefaultTechnical(),
		Fundamental{Series: SyntheticMacro(50, 10, 7), Trend: 5})
	f := func(seed uint64, progress16 uint16, n8 uint8) bool {
		progress := float64(progress16) / math.MaxUint16
		n := int(n8)%100 + 2
		feed, err := NewFeed(FeedConfig{Seed: seed%1000 + 1, Volatility: 0.0002})
		if err != nil {
			return false
		}
		prices := make([]float64, n)
		for i, tick := range feed.Take(n) {
			prices[i] = tick.Mid()
		}
		for _, ind := range indicators {
			adv := ind.Evaluate(prices, progress)
			if adv.Signal < -1 || adv.Signal > 1 {
				return false
			}
			if adv.Confidence < 0 || adv.Confidence > progress+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIndicatorDegenerateInputs(t *testing.T) {
	indicators := append(DefaultTechnical(),
		Fundamental{Series: SyntheticMacro(10, 10, 7), Trend: 5})
	cases := [][]float64{nil, {}, {1}, {1, 1}, {0, 0, 0}}
	for _, ind := range indicators {
		for _, prices := range cases {
			adv := ind.Evaluate(prices, 1)
			if math.IsNaN(adv.Signal) || math.IsInf(adv.Signal, 0) {
				t.Errorf("%s: NaN/Inf on %v", ind.Name(), prices)
			}
		}
		if ind.Name() == "" || ind.MinHistory() < 1 {
			t.Errorf("%s: bad metadata", ind.Name())
		}
	}
}

func TestMacroSeriesAt(t *testing.T) {
	m := MacroSeries{Values: []float64{1, 2, 3}, TicksPerValue: 10}
	if m.At(0) != 1 || m.At(9) != 1 || m.At(10) != 2 || m.At(25) != 3 || m.At(999) != 3 {
		t.Fatal("macro indexing broken")
	}
	var empty MacroSeries
	if empty.At(5) != 0 {
		t.Fatal("empty series should read 0")
	}
}

func TestDecisionEngine(t *testing.T) {
	buy := Decide([]Advice{{Signal: 1, Confidence: 1}, {Signal: 0.8, Confidence: 0.5}})
	if buy.Action != Bid {
		t.Fatalf("strong positive advice should bid, got %v", buy)
	}
	sell := Decide([]Advice{{Signal: -1, Confidence: 1}})
	if sell.Action != Ask {
		t.Fatalf("strong negative advice should ask, got %v", sell)
	}
	wait := Decide([]Advice{{Signal: 0.05, Confidence: 1}})
	if wait.Action != Wait {
		t.Fatalf("weak advice should wait, got %v", wait)
	}
	// Low-QoS jobs (all parts discarded) always wait: the wind-up part
	// still produces a correct, conservative decision.
	lowQoS := Decide([]Advice{{Signal: 1, Confidence: 0.01}})
	if lowQoS.Action != Wait {
		t.Fatalf("low-QoS advice should wait, got %v", lowQoS)
	}
	if none := Decide(nil); none.Action != Wait {
		t.Fatalf("no advice should wait, got %v", none)
	}
}

func TestBrokerAccounting(t *testing.T) {
	b := &Broker{}
	tick := Tick{Bid: 1.0999, Ask: 1.1001}
	b.Execute(Decision{Action: Bid}, tick)
	if b.Position() != 1 || b.Trades() != 1 {
		t.Fatalf("broker %v", b)
	}
	// Buying at the ask and marking to mid costs half the spread.
	if pnl := b.Equity(); math.Abs(pnl-(-0.0001)) > 1e-9 {
		t.Fatalf("pnl %v, want -0.0001 (half spread)", pnl)
	}
	b.Execute(Decision{Action: Ask}, tick)
	if b.Position() != 0 {
		t.Fatalf("round trip should flatten, position %v", b.Position())
	}
	if pnl := b.Equity(); math.Abs(pnl-(-0.0002)) > 1e-9 {
		t.Fatalf("round-trip pnl %v, want -spread", pnl)
	}
	b.Execute(Decision{Action: Wait}, tick)
	if b.Waits() != 1 {
		t.Fatalf("waits %d, want 1", b.Waits())
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	feed, _ := NewFeed(FeedConfig{Seed: 9, Volatility: 0.002})
	inds := DefaultTechnical()
	p, err := NewPipeline(feed, inds)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumOptional() != len(inds) {
		t.Fatalf("NumOptional %d, want %d", p.NumOptional(), len(inds))
	}
	const jobs = 100
	for job := 0; job < jobs; job++ {
		p.OnMandatory(job)
		for k := 0; k < p.NumOptional(); k++ {
			p.OnOptional(job, k, 1.0)
		}
		p.OnWindup(job, nil)
	}
	if len(p.Decisions()) != jobs {
		t.Fatalf("%d decisions, want %d", len(p.Decisions()), jobs)
	}
	if p.MeanQoS() <= 0 {
		t.Fatal("full-progress runs should have positive QoS")
	}
	if p.Broker().Trades()+p.Broker().Waits() != jobs {
		t.Fatal("every decision must reach the broker")
	}
}

// QoS monotonicity at the pipeline level: full-progress evaluation yields
// at least the decision confidence of heavily-terminated evaluation.
func TestPipelineQoSImprovesWithProgress(t *testing.T) {
	runWith := func(progress float64) float64 {
		feed, _ := NewFeed(FeedConfig{Seed: 11, Volatility: 0.002})
		p, err := NewPipeline(feed, DefaultTechnical())
		if err != nil {
			t.Fatal(err)
		}
		for job := 0; job < 60; job++ {
			p.OnMandatory(job)
			for k := 0; k < p.NumOptional(); k++ {
				p.OnOptional(job, k, progress)
			}
			p.OnWindup(job, nil)
		}
		return p.MeanQoS()
	}
	low, high := runWith(0.1), runWith(1.0)
	if high <= low {
		t.Fatalf("QoS should improve with progress: low=%v high=%v", low, high)
	}
}

func TestPipelineValidation(t *testing.T) {
	feed, _ := NewFeed(FeedConfig{Seed: 0xfeed, Volatility: 0.0002})
	if _, err := NewPipeline(nil, DefaultTechnical()); err == nil {
		t.Fatal("nil feed accepted")
	}
	if _, err := NewPipeline(feed, nil); err == nil {
		t.Fatal("no indicators accepted")
	}
}

func TestActionStrings(t *testing.T) {
	for _, a := range []Action{Wait, Bid, Ask} {
		if a.String() == "unknown-action" {
			t.Fatalf("action %d missing label", a)
		}
	}
}
