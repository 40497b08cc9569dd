package trading

import (
	"math"
	"strings"
	"testing"
)

func TestComputeMetricsBasics(t *testing.T) {
	equity := []float64{0, 1, 2, 1.5, 3}
	decisions := []Decision{{Action: Bid}, {Action: Wait}, {Action: Ask}, {Action: Wait}, {Action: Bid}}
	m := ComputeMetrics(equity, decisions)
	if m.FinalPnL != 3 {
		t.Fatalf("final %v", m.FinalPnL)
	}
	if m.MaxDrawdown != 0.5 {
		t.Fatalf("drawdown %v, want 0.5 (peak 2 -> trough 1.5)", m.MaxDrawdown)
	}
	if m.Trades != 3 || m.Waits != 2 {
		t.Fatalf("trades/waits %d/%d", m.Trades, m.Waits)
	}
	// Steps: +1, +1, -0.5, +1.5 -> 3 wins of 4 moves.
	if m.HitRate != 0.75 {
		t.Fatalf("hit rate %v, want 0.75", m.HitRate)
	}
	if m.Sharpe <= 0 {
		t.Fatalf("positive-drift curve should have positive Sharpe, got %v", m.Sharpe)
	}
	if !strings.Contains(m.String(), "sharpe=") {
		t.Fatal("String missing fields")
	}
}

func TestComputeMetricsDegenerate(t *testing.T) {
	if m := ComputeMetrics(nil, nil); m.FinalPnL != 0 || m.Sharpe != 0 {
		t.Fatalf("empty metrics %+v", m)
	}
	if m := ComputeMetrics([]float64{5}, nil); m.FinalPnL != 5 || m.MaxDrawdown != 0 {
		t.Fatalf("single-point metrics %+v", m)
	}
	flat := ComputeMetrics([]float64{1, 1, 1}, nil)
	if flat.Sharpe != 0 || flat.HitRate != 0 {
		t.Fatalf("flat curve metrics %+v", flat)
	}
	if math.IsNaN(flat.Sharpe) {
		t.Fatal("NaN sharpe on flat curve")
	}
}

func TestPipelineEquityCurveAndMetrics(t *testing.T) {
	feed, _ := NewFeed(FeedConfig{Seed: 5, Volatility: 0.002})
	p, err := NewPipeline(feed, DefaultTechnical())
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 50
	for job := 0; job < jobs; job++ {
		p.OnMandatory(job)
		for k := 0; k < p.NumOptional(); k++ {
			p.OnOptional(job, k, 1.0)
		}
		p.OnWindup(job, nil)
	}
	curve := p.EquityCurve()
	if len(curve) != jobs {
		t.Fatalf("curve length %d, want %d", len(curve), jobs)
	}
	m := p.Metrics()
	if m.Trades+m.Waits != jobs {
		t.Fatalf("metrics decisions %d+%d != %d", m.Trades, m.Waits, jobs)
	}
	if m.FinalPnL != curve[len(curve)-1] {
		t.Fatal("final PnL must match the curve")
	}
	if m.MaxDrawdown < 0 {
		t.Fatal("negative drawdown")
	}
}
