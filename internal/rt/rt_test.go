package rt

import (
	"context"
	"testing"
	"time"
)

func TestValidation(t *testing.T) {
	bad := []Config{
		{Period: 0, OptionalDeadline: 1, Jobs: 1},
		{Period: 10, OptionalDeadline: 0, Jobs: 1},
		{Period: 10, OptionalDeadline: 20, Jobs: 1},
		{Period: 10, OptionalDeadline: 5, Jobs: 0},
	}
	for i, cfg := range bad {
		if _, err := NewRunner(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestPeriodicExecution(t *testing.T) {
	var mandatory, windup int
	r, err := NewRunner(Config{
		Name:             "t",
		Period:           40 * time.Millisecond,
		OptionalDeadline: 30 * time.Millisecond,
		Jobs:             3,
		Mandatory:        func(job int) { mandatory++ },
		Windup:           func(job int, progress []float64) { windup++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	reports, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if mandatory != 3 || windup != 3 || len(reports) != 3 {
		t.Fatalf("mandatory=%d windup=%d reports=%d", mandatory, windup, len(reports))
	}
	// Three 40ms periods: the run occupies [80ms, ~200ms] of wall clock.
	if elapsed < 80*time.Millisecond || elapsed > 500*time.Millisecond {
		t.Fatalf("elapsed %v implausible for 3 x 40ms jobs", elapsed)
	}
	for _, rep := range reports {
		if rep.Release != time.Duration(rep.Job)*40*time.Millisecond {
			t.Fatalf("job %d released at %v", rep.Job, rep.Release)
		}
	}
}

func TestOverrunningOptionalTerminated(t *testing.T) {
	// The optional part would run ~10x past the optional deadline; it must
	// be cut off with partial progress and the job must still meet its
	// (soft) deadline.
	opt := SpinOptional(100, 2*time.Millisecond, nil)
	r, err := NewRunner(Config{
		Period:           60 * time.Millisecond,
		OptionalDeadline: 30 * time.Millisecond,
		Jobs:             2,
		Optional:         []OptionalFunc{opt},
	})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		if rep.Progress[0] <= 0 || rep.Progress[0] >= 1 {
			t.Fatalf("job %d: progress %v, want partial", rep.Job, rep.Progress[0])
		}
		// Cooperative termination overshoots by ~one chunk plus scheduler
		// noise. Under a fully loaded test machine the goroutine can be
		// descheduled for tens of milliseconds, so the bound only asserts
		// the part was cut far short of the ~200ms it wanted.
		if rep.WindupStart > rep.Release+100*time.Millisecond {
			t.Fatalf("job %d: wind-up at %v, far past the 30ms optional deadline", rep.Job, rep.WindupStart)
		}
	}
}

func TestQuickOptionalCompletes(t *testing.T) {
	opt := SpinOptional(2, time.Millisecond, nil)
	r, err := NewRunner(Config{
		Period:           50 * time.Millisecond,
		OptionalDeadline: 40 * time.Millisecond,
		Jobs:             1,
		Optional:         []OptionalFunc{opt, opt},
	})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for k, p := range reports[0].Progress {
		if p != 1 {
			t.Fatalf("part %d progress %v, want 1", k, p)
		}
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r, err := NewRunner(Config{
		Period:           time.Hour, // would block forever
		OptionalDeadline: time.Minute,
		Jobs:             2,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var reports []JobReport
	go func() {
		defer close(done)
		reports, _ = r.Run(ctx)
	}()
	// First job runs immediately (release 0); the second sleeps an hour.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not honour cancellation")
	}
	if len(reports) != 1 {
		t.Fatalf("%d reports before cancel, want 1", len(reports))
	}
}

func TestParallelOptionalsRunConcurrently(t *testing.T) {
	// Four optional parts of ~20ms each: executed serially they need 80ms,
	// but the optional deadline is 40ms. If they run in parallel they all
	// complete.
	opt := func(ctx context.Context) float64 {
		deadline, _ := ctx.Deadline()
		for time.Now().Add(5 * time.Millisecond).Before(deadline) {
			select {
			case <-ctx.Done():
				return 0.5
			default:
			}
			time.Sleep(time.Millisecond)
		}
		return 1
	}
	r, err := NewRunner(Config{
		Period:           80 * time.Millisecond,
		OptionalDeadline: 40 * time.Millisecond,
		Jobs:             1,
		Optional:         []OptionalFunc{opt, opt, opt, opt},
	})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for k, p := range reports[0].Progress {
		if p != 1 {
			t.Fatalf("part %d progress %v: parts did not run in parallel", k, p)
		}
	}
}
