package overhead

import (
	"reflect"
	"testing"

	"rtseed/internal/assign"
	"rtseed/internal/machine"
)

// The load-bearing invariant of the parallel executor: every sweep cell is
// an independent deterministic simulation, so the assembled figures are
// deeply equal for any worker count.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	cfg := SweepConfig{NumParts: []int{4, 16, 57}, Jobs: 3}
	want, err := SweepAll(SweepConfig{NumParts: cfg.NumParts, Jobs: cfg.Jobs, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := SweepAll(SweepConfig{NumParts: cfg.NumParts, Jobs: cfg.Jobs, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("Workers=%d produced different figures than Workers=1", workers)
		}
	}
}

// SweepLoad and SweepAll must agree cell-for-cell: SweepAll is not a
// re-implementation, just the three-load enumeration.
func TestSweepAllMatchesSweepLoad(t *testing.T) {
	cfg := SweepConfig{NumParts: []int{4, 57}, Jobs: 2}
	all, err := SweepAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 12 {
		t.Fatalf("%d figures, want 12 (4 kinds x 3 loads)", len(all))
	}
	for _, load := range machine.Loads() {
		figs, err := SweepLoad(cfg, load)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range figs {
			got := ByKindLoad(all, f.Kind, load)
			if got == nil || !reflect.DeepEqual(*got, f) {
				t.Fatalf("SweepAll disagrees with SweepLoad for (%v, %v)", f.Kind, load)
			}
		}
	}
}

func TestQoSSweepDeterministicAcrossWorkers(t *testing.T) {
	nps := []int{4, 16, 57}
	want, err := QoSSweep(machine.NoLoad, assign.OneByOne, nps, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := QoSSweep(machine.NoLoad, assign.OneByOne, nps, 3, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("Workers=8 QoS curve differs from Workers=1:\n%+v\nvs\n%+v", got, want)
	}
}

// The -quick preset caps the jobs per measurement at 10 and never raises
// them; an unset count quick-runs the default 100 as 10.
func TestSweepConfigQuick(t *testing.T) {
	for _, tc := range []struct{ jobs, want int }{{0, 10}, {3, 3}, {10, 10}, {100, 10}} {
		q := SweepConfig{Jobs: tc.jobs, Workers: 2}.Quick()
		if q.Jobs != tc.want || len(q.NumParts) != 3 || q.Workers != 2 {
			t.Errorf("Jobs %d: Quick() = %+v, want %d jobs over 3 part counts", tc.jobs, q, tc.want)
		}
	}
}
