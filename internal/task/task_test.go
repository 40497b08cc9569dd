package task

import (
	"testing"
	"testing/quick"
	"time"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		task Task
		ok   bool
	}{
		{"valid", Task{Name: "a", Mandatory: 250 * time.Millisecond, Windup: 250 * time.Millisecond, Period: time.Second}, true},
		{"zero period", Task{Name: "a", Mandatory: 1, Windup: 1}, false},
		{"negative mandatory", Task{Name: "a", Mandatory: -1, Windup: 1, Period: 10}, false},
		{"zero wcet", Task{Name: "a", Period: 10}, false},
		{"wcet exceeds period", Task{Name: "a", Mandatory: 6, Windup: 6, Period: 10}, false},
		{"negative optional", Task{Name: "a", Mandatory: 1, Windup: 1, Period: 10, Optional: []time.Duration{-1}}, false},
		{"mandatory only", Task{Name: "a", Mandatory: 5, Period: 10}, true},
	}
	for _, c := range cases {
		if err := c.task.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestWCETExcludesOptional(t *testing.T) {
	// "U_i is not included in the execution time of the parallel optional
	// parts" — WCET is m+w only (paper §II-A).
	tk := Uniform("t", 250*time.Millisecond, 250*time.Millisecond, time.Second, 8, time.Second)
	if tk.WCET() != 500*time.Millisecond {
		t.Fatalf("WCET %v, want 500ms", tk.WCET())
	}
	if tk.Utilization() != 0.5 {
		t.Fatalf("U %v, want 0.5", tk.Utilization())
	}
	if tk.OptionalUtilization() != 8.0 {
		t.Fatalf("U^o %v, want 8.0", tk.OptionalUtilization())
	}
	if tk.NumOptional() != 8 {
		t.Fatalf("np %d, want 8", tk.NumOptional())
	}
}

func TestUniformBuildsPaperTask(t *testing.T) {
	// The paper's evaluation task: T=1s, m=250ms, w=250ms, o=1s.
	tk := Uniform("tau1", 250*time.Millisecond, 250*time.Millisecond, time.Second, 228, time.Second)
	if err := tk.Validate(); err != nil {
		t.Fatal(err)
	}
	if tk.Deadline() != tk.Period {
		t.Fatal("implicit deadline must equal period")
	}
	for _, o := range tk.Optional {
		if o != time.Second {
			t.Fatal("uniform optional lengths expected")
		}
	}
}

func TestNewSetValidates(t *testing.T) {
	if _, err := NewSet(); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := NewSet(Task{Name: "bad"}); err == nil {
		t.Fatal("invalid task accepted")
	}
	s, err := NewSet(Uniform("a", 1, 1, 0, 0, 10))
	if err != nil || s.Len() != 1 {
		t.Fatalf("valid set rejected: %v", err)
	}
}

func TestSetIsolatedFromCaller(t *testing.T) {
	tasks := []Task{Uniform("a", 1, 1, 0, 0, 10)}
	s := MustNewSet(tasks...)
	tasks[0].Name = "mutated"
	if s.Tasks[0].Name != "a" {
		t.Fatal("set must copy its input")
	}
}

func TestSortedByRM(t *testing.T) {
	s := MustNewSet(
		Uniform("slow", 1, 1, 0, 0, 100),
		Uniform("fast", 1, 1, 0, 0, 10),
		Uniform("mid", 1, 1, 0, 0, 50),
		Uniform("fast2", 1, 1, 0, 0, 10), // tie: declaration order
	)
	got := s.SortedByRM()
	want := []string{"fast", "fast2", "mid", "slow"}
	for i, w := range want {
		if got[i].Name != w {
			t.Fatalf("RM order %v, want %v", names(got), want)
		}
	}
	// Receiver unchanged.
	if s.Tasks[0].Name != "slow" {
		t.Fatal("SortedByRM must not mutate the set")
	}
}

func names(ts []Task) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name
	}
	return out
}

func TestUtilizations(t *testing.T) {
	s := MustNewSet(
		Uniform("a", 2, 2, 0, 0, 10), // U=0.4
		Uniform("b", 1, 1, 0, 0, 10), // U=0.2
	)
	if u := s.Utilization(); u < 0.599 || u > 0.601 {
		t.Fatalf("U=%v, want 0.6", u)
	}
	if u := s.SystemUtilization(2); u < 0.299 || u > 0.301 {
		t.Fatalf("system U=%v, want 0.3", u)
	}
	if s.SystemUtilization(0) != 0 {
		t.Fatal("system U on zero processors should be 0")
	}
}

func TestHyperperiod(t *testing.T) {
	s := MustNewSet(
		Uniform("a", 1, 1, 0, 0, 4*time.Millisecond),
		Uniform("b", 1, 1, 0, 0, 6*time.Millisecond),
	)
	if hp := s.Hyperperiod(); hp != 12*time.Millisecond {
		t.Fatalf("hyperperiod %v, want 12ms", hp)
	}
}

func TestPartRecordProgress(t *testing.T) {
	p := PartRecord{Outcome: PartTerminated, Executed: 250 * time.Millisecond, Length: time.Second}
	if p.Progress() != 0.25 {
		t.Fatalf("progress %v, want 0.25", p.Progress())
	}
	full := PartRecord{Outcome: PartCompleted, Executed: 2 * time.Second, Length: time.Second}
	if full.Progress() != 1 {
		t.Fatal("progress must clamp to 1")
	}
	zero := PartRecord{Length: 0}
	if zero.Progress() != 1 {
		t.Fatal("zero-length part counts as complete")
	}
}

func TestJobRecordQoSAndDeadline(t *testing.T) {
	j := JobRecord{
		Finish:   900 * time.Millisecond,
		Deadline: time.Second,
		Parts: []PartRecord{
			{Outcome: PartCompleted, Executed: 10, Length: 10},
			{Outcome: PartDiscarded, Executed: 0, Length: 10},
		},
	}
	if !j.Met() {
		t.Fatal("job met its deadline")
	}
	if j.QoS() != 0.5 {
		t.Fatalf("QoS %v, want 0.5", j.QoS())
	}
	empty := JobRecord{Finish: 2, Deadline: 1}
	if empty.Met() {
		t.Fatal("late job must miss")
	}
	if empty.QoS() != 1 {
		t.Fatal("no optional parts means full QoS")
	}
}

func TestSummarize(t *testing.T) {
	jobs := []JobRecord{
		{Finish: 1, Deadline: 2, Parts: []PartRecord{{Outcome: PartCompleted, Executed: 1, Length: 1}}},
		{Finish: 3, Deadline: 2, Parts: []PartRecord{{Outcome: PartTerminated, Executed: 1, Length: 2}}},
		{Finish: 1, Deadline: 2, Parts: []PartRecord{{Outcome: PartDiscarded, Length: 2}}},
	}
	s := Summarize(jobs)
	if s.Jobs != 3 || s.DeadlineMisses != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.CompletedParts != 1 || s.TerminatedParts != 1 || s.DiscardedParts != 1 {
		t.Fatalf("part outcomes %+v", s)
	}
	want := (1.0 + 0.5 + 0.0) / 3
	if s.MeanQoS < want-1e-9 || s.MeanQoS > want+1e-9 {
		t.Fatalf("mean QoS %v, want %v", s.MeanQoS, want)
	}
	if Summarize(nil).Jobs != 0 {
		t.Fatal("empty summary")
	}
}

func TestOutcomeStrings(t *testing.T) {
	for _, o := range []PartOutcome{PartCompleted, PartTerminated, PartDiscarded} {
		if o.String() == "unknown" {
			t.Fatalf("outcome %d missing label", o)
		}
	}
}

// Property: utilization is always WCET/period and within (0, 1] for valid
// tasks.
func TestPropertyUtilizationBounds(t *testing.T) {
	f := func(m, w uint16, period uint16) bool {
		p := time.Duration(period%1000+1) * time.Millisecond
		md := time.Duration(m) * time.Microsecond
		wd := time.Duration(w) * time.Microsecond
		tk := Task{Name: "t", Mandatory: md, Windup: wd, Period: p}
		if err := tk.Validate(); err != nil {
			return true // invalid tasks are out of scope
		}
		u := tk.Utilization()
		return u > 0 && u <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: SortedByRM is a permutation sorted by period.
func TestPropertySortedByRM(t *testing.T) {
	f := func(periods []uint16) bool {
		if len(periods) == 0 {
			return true
		}
		tasks := make([]Task, len(periods))
		for i, p := range periods {
			tasks[i] = Uniform("t", 1, 1, 0, 0, time.Duration(p%100+1)*time.Millisecond)
		}
		s := MustNewSet(tasks...)
		sorted := s.SortedByRM()
		if len(sorted) != len(tasks) {
			return false
		}
		for i := 1; i < len(sorted); i++ {
			if sorted[i].Period < sorted[i-1].Period {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringMethods(t *testing.T) {
	tk := Uniform("s", time.Millisecond, time.Millisecond, time.Second, 2, 10*time.Millisecond)
	if tk.String() == "" {
		t.Fatal("empty task string")
	}
	st := Summarize([]JobRecord{{Finish: 1, Deadline: 2}})
	if st.String() == "" {
		t.Fatal("empty stats string")
	}
	if PartOutcome(0).String() != "unknown" {
		t.Fatal("zero outcome label")
	}
}
