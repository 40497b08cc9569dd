package analysis

import (
	"reflect"
	"testing"
	"time"

	"rtseed/internal/task"
	"rtseed/internal/workload"
)

func TestGenerateUUniFast(t *testing.T) {
	set, err := task.Generate(task.GenConfig{N: 8, TotalUtilization: 0.6, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 8 {
		t.Fatalf("%d tasks, want 8", set.Len())
	}
	// ΣU close to target (duration rounding allows small error).
	if u := set.Utilization(); u < 0.55 || u > 0.65 {
		t.Fatalf("ΣU = %v, want ~0.6", u)
	}
	for _, tk := range set.Tasks {
		if err := tk.Validate(); err != nil {
			t.Fatal(err)
		}
		if tk.Windup <= 0 || tk.Mandatory <= 0 {
			t.Fatalf("degenerate split %+v", tk)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := task.Generate(task.GenConfig{N: 4, TotalUtilization: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := task.Generate(task.GenConfig{N: 4, TotalUtilization: 0.5, Seed: 7})
	for i := range a.Tasks {
		if a.Tasks[i].Period != b.Tasks[i].Period || a.Tasks[i].Mandatory != b.Tasks[i].Mandatory {
			t.Fatal("same seed must generate the same set")
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []task.GenConfig{
		{N: 0, TotalUtilization: 0.5},
		{N: 2, TotalUtilization: 0},
		{N: 2, TotalUtilization: 3},
	}
	for i, cfg := range bad {
		if _, err := task.Generate(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestAcceptanceRatioShape(t *testing.T) {
	points, err := AcceptanceRatio(AcceptanceConfig{
		N:            4,
		SetsPerPoint: 40,
		Utilizations: []float64{0.3, 0.6, 0.9},
		Seed:         11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	for _, p := range points {
		// RMWP is strictly stronger than general RM feasibility.
		if p.RMWP > p.GeneralRM+1e-9 {
			t.Fatalf("U=%.1f: RMWP ratio %.2f exceeds general RM %.2f", p.Utilization, p.RMWP, p.GeneralRM)
		}
		// The LL bound is sufficient for general RM.
		if p.LLBound > p.GeneralRM+1e-9 {
			t.Fatalf("U=%.1f: LL bound %.2f exceeds exact RM %.2f", p.Utilization, p.LLBound, p.GeneralRM)
		}
		if p.RMWP < 0 || p.RMWP > 1 {
			t.Fatalf("ratio out of range: %+v", p)
		}
	}
	// Acceptance falls with utilization.
	if points[0].RMWP < points[2].RMWP {
		t.Fatalf("acceptance should not rise with utilization: %+v", points)
	}
	// Low utilization is easy, high is hard.
	if points[0].RMWP < 0.9 {
		t.Fatalf("U=0.3 should be almost always schedulable, got %.2f", points[0].RMWP)
	}
	if points[2].GeneralRM > 0.9 {
		t.Fatalf("U=0.9 should not be almost always RM-schedulable, got %.2f", points[2].GeneralRM)
	}
}

func TestAcceptanceRatioValidation(t *testing.T) {
	if _, err := AcceptanceRatio(AcceptanceConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestSensitivities(t *testing.T) {
	s := task.MustNewSet(
		task.Uniform("hi", 1*time.Millisecond, 1*time.Millisecond, 0, 0, 10*time.Millisecond),
		task.Uniform("lo", 2*time.Millisecond, 2*time.Millisecond, 0, 0, 40*time.Millisecond),
	)
	sens, err := Sensitivities(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(sens) != 2 {
		t.Fatalf("%d sensitivities", len(sens))
	}
	for _, se := range sens {
		if se.MandatorySlack < 0 || se.WindupSlack < 0 {
			t.Fatalf("%s: negative slack %+v", se.Task, se)
		}
		if se.MaxMandatory <= 0 || se.MaxWindup <= 0 {
			t.Fatalf("%s: degenerate maxima %+v", se.Task, se)
		}
	}
	// Growing a task to its reported maximum must stay schedulable;
	// growing well past it must not.
	grown := task.MustNewSet(
		task.Uniform("hi", sens[0].MaxMandatory-time.Microsecond, 1*time.Millisecond, 0, 0, 10*time.Millisecond),
		task.Uniform("lo", 2*time.Millisecond, 2*time.Millisecond, 0, 0, 40*time.Millisecond),
	)
	if _, err := RMWP(grown); err != nil {
		t.Fatalf("set at reported maximum should be schedulable: %v", err)
	}
	over := sens[0].MaxMandatory + 2*time.Millisecond
	if over+1*time.Millisecond <= 10*time.Millisecond {
		tooBig := task.MustNewSet(
			task.Uniform("hi", over, 1*time.Millisecond, 0, 0, 10*time.Millisecond),
			task.Uniform("lo", 2*time.Millisecond, 2*time.Millisecond, 0, 0, 40*time.Millisecond),
		)
		if _, err := RMWP(tooBig); err == nil {
			t.Fatal("set past the maximum should be unschedulable")
		}
	}
}

func TestSensitivitiesRejectsUnschedulable(t *testing.T) {
	s := task.MustNewSet(
		task.Uniform("a", 6*time.Millisecond, 3*time.Millisecond, 0, 0, 10*time.Millisecond),
		task.Uniform("b", 6*time.Millisecond, 3*time.Millisecond, 0, 0, 10*time.Millisecond),
	)
	if _, err := Sensitivities(s); err == nil {
		t.Fatal("unschedulable base accepted")
	}
	if _, err := Sensitivities(nil); err == nil {
		t.Fatal("nil set accepted")
	}
}

// TestAcceptanceRatioSpecMode checks the bursty-spec generator: the curve is
// a pure function of (spec, seed) for any worker count, differs from the
// legacy uniform generator, and preserves the RMWP <= general-RM ordering.
func TestAcceptanceRatioSpecMode(t *testing.T) {
	spec, ok := workload.BuiltinSpec("flash-crash")
	if !ok {
		t.Fatal("flash-crash builtin missing")
	}
	cfg := AcceptanceConfig{
		N:            4,
		SetsPerPoint: 30,
		Utilizations: []float64{0.3, 0.5, 0.7},
		Seed:         0xacce,
		Spec:         &spec,
		Workers:      1,
	}
	want, err := AcceptanceRatio(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	got, err := AcceptanceRatio(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("spec-mode curve depends on worker count:\n%+v\nvs\n%+v", got, want)
	}
	for _, p := range want {
		if p.RMWP > p.GeneralRM {
			t.Errorf("U=%.1f: RMWP %.2f above general RM %.2f", p.Utilization, p.RMWP, p.GeneralRM)
		}
	}

	legacy := cfg
	legacy.Spec = nil
	legacy.Workers = 1
	base, err := AcceptanceRatio(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(base, want) {
		t.Fatal("spec mode produced the legacy curve exactly; generator not switched")
	}

	bad := cfg
	bad.Spec = &workload.Spec{}
	if _, err := AcceptanceRatio(bad); err == nil {
		t.Fatal("invalid spec accepted")
	}
}
