package trading

import (
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"rtseed/internal/workload"
)

func TestReplayFeed(t *testing.T) {
	feed, _ := NewFeed(FeedConfig{Seed: 3, Volatility: 0.0002})
	ticks := feed.Take(5)
	rf, err := NewReplayFeed(ticks)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Len() != 5 {
		t.Fatalf("len %d", rf.Len())
	}
	for i := 0; i < 5; i++ {
		got, err := rf.NextTick()
		if err != nil || got != ticks[i] {
			t.Fatalf("tick %d: %+v, %v", i, got, err)
		}
	}
	if _, err := rf.NextTick(); err != io.EOF {
		t.Fatalf("exhausted replay should return EOF, got %v", err)
	}
	// Looping replay wraps around.
	rf2, _ := NewReplayFeed(ticks)
	rf2.Loop = true
	for i := 0; i < 12; i++ {
		got, err := rf2.NextTick()
		if err != nil || got != ticks[i%5] {
			t.Fatalf("loop tick %d: %+v, %v", i, got, err)
		}
	}
	if _, err := NewReplayFeed(nil); err == nil {
		t.Fatal("empty replay accepted")
	}
}

func TestReplayFeedDrivesPipeline(t *testing.T) {
	feed, _ := NewFeed(FeedConfig{Seed: 3, Volatility: 0.002})
	rf, err := NewReplayFeed(feed.Take(60))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(rf, DefaultTechnical())
	if err != nil {
		t.Fatal(err)
	}
	for job := 0; job < 60; job++ {
		p.OnMandatory(job)
		for k := 0; k < p.NumOptional(); k++ {
			p.OnOptional(job, k, 1)
		}
		p.OnWindup(job, nil)
	}
	if len(p.Decisions()) != 60 || p.SourceErrors() != 0 {
		t.Fatalf("decisions %d, source errors %d", len(p.Decisions()), p.SourceErrors())
	}
	// Exhausted replay degrades gracefully.
	p.OnMandatory(60)
	if p.SourceErrors() != 1 {
		t.Fatalf("expected a source error after exhaustion, got %d", p.SourceErrors())
	}
}

// TestNewTraceReplay checks the .rtk conversion: full stream, symbol filter,
// looping, and the no-ticks error path.
func TestNewTraceReplay(t *testing.T) {
	spec, ok := workload.BuiltinSpec("flash-crash")
	if !ok {
		t.Fatal("flash-crash builtin missing")
	}
	src, err := workload.Compile(spec, workload.CompileConfig{
		Clients: 8, Seed: 3, Horizon: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := src.Trace(50)
	ticks := tr.Ticks
	feed, err := NewTraceReplay(tr, -1)
	if err != nil {
		t.Fatal(err)
	}
	if feed.Len() != len(ticks) {
		t.Fatalf("replay holds %d ticks, trace has %d", feed.Len(), len(ticks))
	}
	first, err := feed.NextTick()
	if err != nil {
		t.Fatal(err)
	}
	if first.At != ticks[0].At || first.Bid != ticks[0].Bid || first.Ask != ticks[0].Ask {
		t.Errorf("first tick %+v does not match trace %+v", first, ticks[0])
	}
	for i := 1; i < feed.Len(); i++ {
		if _, err := feed.NextTick(); err != nil {
			t.Fatal(err)
		}
	}
	if again, err := feed.NextTick(); err != nil || again != first {
		t.Errorf("exhausted replay returned %+v, %v; want the first tick again", again, err)
	}

	sym := int(ticks[0].Symbol)
	want := 0
	for _, tk := range ticks {
		if int(tk.Symbol) == sym {
			want++
		}
	}
	filtered, err := NewTraceReplay(tr, sym)
	if err != nil {
		t.Fatal(err)
	}
	if filtered.Len() != want {
		t.Errorf("symbol %d filter kept %d ticks, want %d", sym, filtered.Len(), want)
	}

	if _, err := NewTraceReplay(tr, 1<<20); err == nil {
		t.Error("absent symbol accepted")
	}
}

// TestNewTraceReplaySymbolRange rejects symbols no uint32 can hold instead
// of truncating them: 1<<32 + sym used to replay symbol sym's quotes, and
// every negative value used to mean "all symbols".
func TestNewTraceReplaySymbolRange(t *testing.T) {
	spec, _ := workload.BuiltinSpec("flash-crash")
	src, err := workload.Compile(spec, workload.CompileConfig{
		Clients: 8, Seed: 3, Horizon: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := src.Trace(50)
	sym := int(tr.Ticks[0].Symbol)
	for _, bad := range []int{1<<32 + sym, -2, math.MinInt} {
		_, err := NewTraceReplay(tr, bad)
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(bad)) {
			t.Errorf("symbol %d: error %v, want one naming the symbol", bad, err)
		}
	}
	if _, err := NewTraceReplay(tr, math.MaxUint32); err == nil || !strings.Contains(err.Error(), "no ticks") {
		t.Errorf("symbol MaxUint32: error %v, want in range with no ticks", err)
	}
}
