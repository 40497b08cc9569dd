package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// Slicing a run into ops must not change what is simulated: K
// engine.RunUntil slices give the same outcome digest as one unsliced run.

func TestPaperSlicingLeavesOutcomeUnchanged(t *testing.T) {
	const slices, perSlice = 4, 5
	sliced := paperDigest(t, 1, slices, perSlice)
	whole := paperDigest(t, 1, 1, slices*perSlice)
	if sliced != whole {
		t.Fatalf("digest after %d slices = %s, one slice = %s", slices, sliced, whole)
	}
}

func TestManyTaskSlicingLeavesOutcomeUnchanged(t *testing.T) {
	const slices = 5
	sliced := manyTaskDigest(t, 1, slices, mtSlice)
	whole := manyTaskDigest(t, 1, 1, slices*mtSlice)
	if sliced != whole {
		t.Fatalf("digest after %d slices = %s, one slice = %s", slices, sliced, whole)
	}
}

// The fleet's op is a whole Simulate, which slices the horizon into epochs
// itself; its counterpart is that the worker count and repeated calls
// leave the result unchanged.
func TestFleetResultIndependentOfWorkersAndRepeats(t *testing.T) {
	two, err := buildFleet(nil, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	one, err := buildFleet(nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := two.plan.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := two.plan.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	c, err := one.plan.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two Simulate calls on one plan differ")
	}
	if !reflect.DeepEqual(a, c) {
		t.Error("Workers=1 and Workers=2 results differ")
	}
}

// reference is the committed outcome digest of each workload for the
// default seed at a fixed, short length (reference_digests.json).
type reference struct {
	Seed     uint64 `json:"seed"`
	Workload map[string]struct {
		Length string `json:"length"`
		Digest string `json:"digest"`
	} `json:"workloads"`
}

func loadReference(t *testing.T) reference {
	t.Helper()
	data, err := os.ReadFile("reference_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestReferenceDigests pins the modelled outcome for the default seed. The
// digests leave out simulator-internal counts such as engine events, so a
// change that only makes the simulator faster keeps them; one that changes
// what is simulated does not.
func TestReferenceDigests(t *testing.T) {
	ref := loadReference(t)
	got := map[string]string{
		"paper-np228":       paperDigest(t, ref.Seed, 1, refPaperJobs),
		"manytask-16k":      manyTaskDigest(t, ref.Seed, 1, refManyTaskSpan),
		"fleet-flash-crash": fleetDigestFor(t, ref.Seed),
	}
	for name, d := range got {
		want, ok := ref.Workload[name]
		if !ok {
			t.Errorf("%s: no reference digest (got %s)", name, d)
			continue
		}
		if d != want.Digest {
			t.Errorf("%s: digest %s, reference %s", name, d, want.Digest)
		}
	}
}

// The invariants hold on the default seed and on a held-out seed that no
// tuning used.
func TestInvariants(t *testing.T) {
	for _, seed := range []uint64{1, heldOutSeed} {
		r := &run{seed: seed, out: io.Discard, e2e: map[string]metric{}}
		const jobs = 20
		s, err := buildPaper(nil, seed, jobs, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.advance(jobs); err != nil {
			t.Fatal(err)
		}
		checkPaper(r, s.outcome(nil), jobs)

		f, err := buildFleet(nil, seed, fleetWorkers)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.plan.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		checkFleet(r, res)
		if len(r.checks) > 0 {
			t.Errorf("seed %d: %s", seed, strings.Join(r.checks, "; "))
		}
	}
}

func TestTail(t *testing.T) {
	for _, c := range []struct {
		n, beyond int
		p, v      float64
	}{
		{200, 10, 0.95, 190},
		{199, 19, 0.9, 180},
		{1000, 10, 0.99, 990},
		{5, 2, 0.5, 3},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		p, v, beyond := tail(xs)
		if p != c.p || v != c.v || beyond != c.beyond {
			t.Errorf("tail of 1..%d = p%v %v with %d beyond, want p%v %v with %d beyond", c.n, p, v, beyond, c.p, c.v, c.beyond)
		}
	}
}

const (
	refPaperJobs    = 20
	refManyTaskSpan = 200 * time.Millisecond
	heldOutSeed     = 20261017
)

func paperDigest(t *testing.T, seed uint64, slices, perSlice int) string {
	t.Helper()
	s, err := buildPaper(nil, seed, slices*perSlice, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < slices; i++ {
		if err := s.advance(perSlice); err != nil {
			t.Fatal(err)
		}
	}
	return s.digest(s.outcome(nil))
}

func manyTaskDigest(t *testing.T, seed uint64, slices int, perSlice time.Duration) string {
	t.Helper()
	s, err := buildManyTask(nil, seed, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.advance(mtWarm); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < slices; i++ {
		if err := s.advance(perSlice); err != nil {
			t.Fatal(err)
		}
	}
	return s.digest()
}

func fleetDigestFor(t *testing.T, seed uint64) string {
	t.Helper()
	f, err := buildFleet(nil, seed, fleetWorkers)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.plan.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	return fleetDigest(res)
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists and the
// metrics this program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bench struct {
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range bench.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, program prints %v", e2e, endToEnd)
	}
	var layers []entry
	for _, m := range perLayer {
		layers = append(layers, entry{m.name, m.unit})
	}
	if !reflect.DeepEqual(bench.PerLayer, layers) {
		t.Errorf("per_layer %v, program prints %v", bench.PerLayer, layers)
	}
	for i, w := range bench.Workloads {
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json", i, w.Name)
		}
	}
}
