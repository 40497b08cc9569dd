package analysis

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"rtseed/internal/task"
)

func TestLiuLaylandBound(t *testing.T) {
	if b := LiuLaylandBound(1); b != 1 {
		t.Fatalf("bound(1) = %v, want 1", b)
	}
	if b := LiuLaylandBound(2); math.Abs(b-0.8284) > 1e-3 {
		t.Fatalf("bound(2) = %v, want ~0.828", b)
	}
	// Monotone decreasing toward ln 2.
	prev := 2.0
	for n := 1; n <= 64; n *= 2 {
		b := LiuLaylandBound(n)
		if b >= prev {
			t.Fatalf("bound must decrease: n=%d b=%v prev=%v", n, b, prev)
		}
		prev = b
	}
	if prev < math.Ln2-1e-3 {
		t.Fatalf("bound fell below ln2: %v", prev)
	}
	if LiuLaylandBound(0) != 0 {
		t.Fatal("bound(0) should be 0")
	}
}

func TestRMUSThreshold(t *testing.T) {
	// M/(3M-2): 1 for M=1, 0.5 for M=2, -> 1/3 as M grows.
	if RMUSThreshold(1) != 1 {
		t.Fatalf("threshold(1) = %v", RMUSThreshold(1))
	}
	if RMUSThreshold(2) != 0.5 {
		t.Fatalf("threshold(2) = %v", RMUSThreshold(2))
	}
	if th := RMUSThreshold(1000); math.Abs(th-1.0/3) > 1e-3 {
		t.Fatalf("threshold(1000) = %v, want ~1/3", th)
	}
	if RMUSThreshold(0) != 0 {
		t.Fatal("threshold(0) should be 0")
	}
	heavy := task.Uniform("h", 400*time.Millisecond, 300*time.Millisecond, 0, 0, time.Second)
	if !NeedsHighestPriority(heavy, 57) {
		t.Fatal("U=0.7 task must take the HPQ slot on 57 processors")
	}
	light := task.Uniform("l", 10*time.Millisecond, 10*time.Millisecond, 0, 0, time.Second)
	if NeedsHighestPriority(light, 57) {
		t.Fatal("U=0.02 task must not take the HPQ slot")
	}
}

// The paper's single-task case (§V-A): OD_1 = D_1 − w_1.
func TestOptionalDeadlineSingleTask(t *testing.T) {
	s := task.MustNewSet(task.Uniform("tau1",
		250*time.Millisecond, 250*time.Millisecond, time.Second, 8, time.Second))
	res, err := RMWP(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].OptionalDeadline; got != 750*time.Millisecond {
		t.Fatalf("OD = %v, want 750ms (D1 - w1)", got)
	}
}

func TestRMWPTwoTasks(t *testing.T) {
	// τ1: m=1, w=1, T=10 (highest priority). τ2: m=2, w=2, T=20.
	s := task.MustNewSet(
		task.Uniform("t1", 1*time.Millisecond, 1*time.Millisecond, 0, 0, 10*time.Millisecond),
		task.Uniform("t2", 2*time.Millisecond, 2*time.Millisecond, 0, 0, 20*time.Millisecond),
	)
	res, err := RMWP(s)
	if err != nil {
		t.Fatal(err)
	}
	// τ1 sees no interference: OD = 10 - 1 = 9ms, R^m = 1ms.
	if res[0].OptionalDeadline != 9*time.Millisecond {
		t.Fatalf("t1 OD = %v, want 9ms", res[0].OptionalDeadline)
	}
	if res[0].MandatoryResponse != time.Millisecond {
		t.Fatalf("t1 R^m = %v, want 1ms", res[0].MandatoryResponse)
	}
	// τ2's wind-up (2ms) can be delayed by one τ1 job (2ms): R^w = 4ms,
	// OD = 20 - 4 = 16ms. R^m = 2 + 2 = 4ms <= 16ms: schedulable.
	if res[1].WindupResponse != 4*time.Millisecond {
		t.Fatalf("t2 R^w = %v, want 4ms", res[1].WindupResponse)
	}
	if res[1].OptionalDeadline != 16*time.Millisecond {
		t.Fatalf("t2 OD = %v, want 16ms", res[1].OptionalDeadline)
	}
	if !res[1].Schedulable {
		t.Fatal("t2 should be schedulable")
	}
}

func TestRMWPUnschedulable(t *testing.T) {
	// Two tasks each needing 60% of the processor.
	s := task.MustNewSet(
		task.Uniform("t1", 3*time.Millisecond, 3*time.Millisecond, 0, 0, 10*time.Millisecond),
		task.Uniform("t2", 6*time.Millisecond, 4*time.Millisecond, 0, 0, 16*time.Millisecond),
	)
	_, err := RMWP(s)
	if err == nil {
		t.Fatal("overloaded set accepted")
	}
	if !errors.Is(err, ErrUnschedulable) {
		t.Fatalf("error %v should wrap ErrUnschedulable", err)
	}
}

// Theorem 1/2 of the paper: optional deadlines and schedulability do not
// depend on the number (or length) of parallel optional parts, because
// optional parts never interfere with mandatory or wind-up parts.
func TestTheorem1OptionalPartsIrrelevant(t *testing.T) {
	base := []task.Task{
		task.Uniform("a", 2*time.Millisecond, 1*time.Millisecond, 0, 0, 10*time.Millisecond),
		task.Uniform("b", 3*time.Millisecond, 2*time.Millisecond, 0, 0, 25*time.Millisecond),
	}
	ref, err := RMWP(task.MustNewSet(base...))
	if err != nil {
		t.Fatal(err)
	}
	for _, np := range []int{1, 4, 57, 228} {
		variant := []task.Task{
			task.Uniform("a", 2*time.Millisecond, 1*time.Millisecond, 5*time.Second, np, 10*time.Millisecond),
			task.Uniform("b", 3*time.Millisecond, 2*time.Millisecond, time.Hour, np, 25*time.Millisecond),
		}
		got, err := RMWP(task.MustNewSet(variant...))
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i].OptionalDeadline != ref[i].OptionalDeadline {
				t.Fatalf("np=%d changed OD of %s: %v vs %v",
					np, ref[i].Task.Name, got[i].OptionalDeadline, ref[i].OptionalDeadline)
			}
			if got[i].Schedulable != ref[i].Schedulable {
				t.Fatalf("np=%d changed schedulability of %s", np, ref[i].Task.Name)
			}
		}
	}
}

func TestResponseTimes(t *testing.T) {
	s := task.MustNewSet(
		task.Uniform("t1", 2*time.Millisecond, 1*time.Millisecond, 0, 0, 10*time.Millisecond),
		task.Uniform("t2", 3*time.Millisecond, 1*time.Millisecond, 0, 0, 20*time.Millisecond),
	)
	rts, ok := ResponseTimes(s)
	if !ok {
		t.Fatal("set should be schedulable")
	}
	if rts[0] != 3*time.Millisecond {
		t.Fatalf("R1 = %v, want 3ms", rts[0])
	}
	// R2 = 4 + ceil(R2/10)*3 -> 7ms.
	if rts[1] != 7*time.Millisecond {
		t.Fatalf("R2 = %v, want 7ms", rts[1])
	}
}

func TestResponseTimesOverload(t *testing.T) {
	s := task.MustNewSet(
		task.Uniform("t1", 6*time.Millisecond, 0, 0, 0, 10*time.Millisecond),
		task.Uniform("t2", 6*time.Millisecond, 0, 0, 0, 10*time.Millisecond),
	)
	if _, ok := ResponseTimes(s); ok {
		t.Fatal("120% utilization cannot be schedulable")
	}
}

func TestUtilizationSchedulable(t *testing.T) {
	ok := task.MustNewSet(task.Uniform("a", 2, 2, 0, 0, 10))
	if !UtilizationSchedulable(ok) {
		t.Fatal("U=0.4 single task must pass the LL test")
	}
	full := task.MustNewSet(
		task.Uniform("a", 3, 2, 0, 0, 10),
		task.Uniform("b", 5, 2, 0, 0, 14),
	)
	if UtilizationSchedulable(full) {
		t.Fatal("U=1.0 pair must fail the LL test")
	}
}

func TestBreakdownUtilization(t *testing.T) {
	s := task.MustNewSet(task.Uniform("a", 100*time.Millisecond, 100*time.Millisecond, 0, 0, time.Second))
	// A single RMWP task is schedulable as long as m+w <= T, so breakdown
	// scale is ~5x (0.2 -> 1.0 utilization).
	b := BreakdownUtilization(s, 0.01)
	if b < 4.8 || b > 5.1 {
		t.Fatalf("breakdown scale %v, want ~5", b)
	}
	if BreakdownUtilization(nil, 0.01) != 0 {
		t.Fatal("nil set breakdown should be 0")
	}
}

func TestRMWPEmptySet(t *testing.T) {
	if _, err := RMWP(nil); err == nil {
		t.Fatal("nil set accepted")
	}
}

// Property: OD_i is always in [0, D_i − w_i] for schedulable tasks, and the
// single-task formula OD = D − w holds exactly.
func TestPropertyOptionalDeadlineBounds(t *testing.T) {
	f := func(m8, w8, t8 uint8) bool {
		m := time.Duration(m8%50+1) * time.Millisecond
		w := time.Duration(w8%50+1) * time.Millisecond
		period := time.Duration(t8)*time.Millisecond + m + w // always feasible
		tk := task.Task{Name: "t", Mandatory: m, Windup: w, Period: period}
		res, err := RMWP(task.MustNewSet(tk))
		if err != nil {
			return false
		}
		return res[0].OptionalDeadline == period-w && res[0].Schedulable
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: adding a higher-priority task never increases a task's optional
// deadline.
func TestPropertyInterferenceShrinksOD(t *testing.T) {
	f := func(m8, w8 uint8) bool {
		low := task.Uniform("low", 10*time.Millisecond, 10*time.Millisecond, 0, 0, 100*time.Millisecond)
		alone, err := RMWP(task.MustNewSet(low))
		if err != nil {
			return false
		}
		hi := task.Uniform("hi",
			time.Duration(m8%5+1)*time.Millisecond,
			time.Duration(w8%5+1)*time.Millisecond,
			0, 0, 20*time.Millisecond)
		both, err := RMWP(task.MustNewSet(low, hi))
		if err != nil {
			return true // unschedulable combinations are out of scope
		}
		var lowOD time.Duration
		for _, r := range both {
			if r.Task.Name == "low" {
				lowOD = r.OptionalDeadline
			}
		}
		return lowOD <= alone[0].OptionalDeadline
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
