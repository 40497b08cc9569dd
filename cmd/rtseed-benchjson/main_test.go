package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func testFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("rtseed-benchjson", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestParseFlagsErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-trajectory"}, "-trajectory"},
		{[]string{"-trajectory", "-baseline", "b.json", "BENCH_PR3.json"}, "-baseline"},
		{[]string{"BENCH_PR3.json"}, "-trajectory"},
		{[]string{"-o", "out.json", "stray"}, "stray"},
	} {
		_, err := parseFlags(testFlagSet(), c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("args %v: error %v, want one naming %s", c.args, err, c.want)
		}
	}
	for _, args := range [][]string{{}, {"-o", "out.json", "-baseline", "b.json"}, {"-trajectory", "BENCH_PR3.json", "BENCH_PR6.json"}} {
		if _, err := parseFlags(testFlagSet(), args); err != nil {
			t.Errorf("args %v: %v, want accepted", args, err)
		}
	}
}

// FuzzParseFlags parses arbitrary command lines: parseFlags must never
// panic, and every command line it accepts reads exactly one input, the
// report files with -trajectory and stdin without.
func FuzzParseFlags(f *testing.F) {
	for _, seed := range []string{"", "-o out.json", "-baseline b.json", "-trajectory", "-trajectory BENCH_PR3.json",
		"-trajectory -baseline b.json BENCH_PR3.json", "BENCH_PR3.json", "-o", "-h"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		o, err := parseFlags(testFlagSet(), strings.Fields(line))
		if err != nil {
			return
		}
		if o.trajectory != (len(o.reports) > 0) || o.trajectory && o.baseline != "" {
			t.Fatalf("%q accepted with trajectory %v, reports %q, baseline %q", line, o.trajectory, o.reports, o.baseline)
		}
	})
}

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: rtseed
cpu: AMD EPYC 7B13
BenchmarkEngineScheduleStep-8   	 5000000	       221.4 ns/op	       0 B/op	       0 allocs/op
BenchmarkManyTaskKernel/release/n=1024-8         	 4795105	       498.7 ns/op	       0 B/op	       0 allocs/op
BenchmarkNoMem-8	 1000000	      1234 ns/op
PASS
ok  	rtseed	12.345s
goos: linux
goarch: amd64
pkg: rtseed/internal/engine
BenchmarkWheel-8	 2000000	       100.0 ns/op	       8 B/op	       1 allocs/op
PASS
`

func TestParseBench(t *testing.T) {
	rep, err := parseBench(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(rep.Benchmarks), 4; got != want {
		t.Fatalf("parsed %d benchmarks, want %d", got, want)
	}
	// Context keeps the first pkg, not the later engine one.
	if rep.Context["pkg"] != "rtseed" {
		t.Errorf("context pkg = %q, want the first package", rep.Context["pkg"])
	}
	if rep.Context["cpu"] != "AMD EPYC 7B13" {
		t.Errorf("context cpu = %q", rep.Context["cpu"])
	}

	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkEngineScheduleStep" {
		t.Errorf("name = %q, want GOMAXPROCS suffix stripped", b.Name)
	}
	if b.Iterations != 5000000 || b.NsPerOp != 221.4 || b.BytesPerOp != 0 || b.AllocsPerOp != 0 {
		t.Errorf("first result = %+v", b)
	}

	sub := rep.Benchmarks[1]
	if sub.Name != "BenchmarkManyTaskKernel/release/n=1024" {
		t.Errorf("sub-benchmark name = %q", sub.Name)
	}

	// No -benchmem columns → B/op and allocs/op report -1, not 0.
	nomem := rep.Benchmarks[2]
	if nomem.NsPerOp != 1234 || nomem.BytesPerOp != -1 || nomem.AllocsPerOp != -1 {
		t.Errorf("no-benchmem result = %+v", nomem)
	}
}

func TestParseLineErrors(t *testing.T) {
	for _, line := range []string{
		"BenchmarkShort-8 123",
		"BenchmarkBadIters-8 xx 10 ns/op",
		"BenchmarkBadNs-8 100 zz ns/op",
	} {
		if _, err := parseLine(line); err == nil {
			t.Errorf("parseLine(%q) succeeded, want error", line)
		}
	}
}

func TestCollapseMedian(t *testing.T) {
	const repeated = `BenchmarkHot-8 100 30.0 ns/op
BenchmarkHot-8 100 10.0 ns/op
BenchmarkOther-8 50 7.0 ns/op
BenchmarkHot-8 100 20.0 ns/op
`
	rep, err := parseBench(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(rep.Benchmarks), 2; got != want {
		t.Fatalf("collapsed to %d benchmarks, want %d", got, want)
	}
	// First-seen order is kept; the repeated entry reports the median.
	hot := rep.Benchmarks[0]
	if hot.Name != "BenchmarkHot" || hot.NsPerOp != 20.0 || hot.Samples != 3 {
		t.Errorf("median entry = %+v, want 20 ns/op over 3 samples", hot)
	}
	other := rep.Benchmarks[1]
	if other.Name != "BenchmarkOther" || other.Samples != 0 {
		t.Errorf("single entry = %+v, want no samples field", other)
	}
}

func TestApplyBaseline(t *testing.T) {
	base := t.TempDir() + "/base.json"
	if err := writeFile(base, `{"benchmarks":[{"name":"BenchmarkHot","ns_per_op":40.0}]}`); err != nil {
		t.Fatal(err)
	}
	rep := &Report{Benchmarks: []Result{
		{Name: "BenchmarkHot", NsPerOp: 10.0},
		{Name: "BenchmarkNew", NsPerOp: 5.0},
	}}
	if err := applyBaseline(rep, base); err != nil {
		t.Fatal(err)
	}
	hot := rep.Benchmarks[0]
	if hot.BaselineNsPerOp != 40.0 || hot.Speedup != 4.0 {
		t.Errorf("baselined entry = %+v, want before=40 speedup=4", hot)
	}
	if rep.Benchmarks[1].BaselineNsPerOp != 0 {
		t.Errorf("benchmark absent from the baseline gained a comparison: %+v", rep.Benchmarks[1])
	}
	if err := applyBaseline(rep, t.TempDir()+"/missing.json"); err == nil {
		t.Error("missing baseline file must error")
	}
}

func TestParseBenchEmpty(t *testing.T) {
	rep, err := parseBench(strings.NewReader("PASS\nok rtseed 1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Fatalf("parsed %d benchmarks from non-benchmark input", len(rep.Benchmarks))
	}
}

func TestPointLabel(t *testing.T) {
	for path, want := range map[string]string{
		"results/BENCH_PR6.json": "PR6",
		"BENCH_PR8.json":         "PR8",
		"results/other.json":     "other",
	} {
		if got := pointLabel(path); got != want {
			t.Errorf("pointLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestBuildTrajectory(t *testing.T) {
	dir := t.TempDir()
	pr3 := dir + "/BENCH_PR3.json"
	pr6 := dir + "/BENCH_PR6.json"
	if err := writeFile(pr3, `{"benchmarks":[
		{"name":"BenchmarkHot","ns_per_op":40.0},
		{"name":"BenchmarkGone","ns_per_op":9.0}]}`); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(pr6, `{"benchmarks":[
		{"name":"BenchmarkHot","ns_per_op":10.0},
		{"name":"BenchmarkNew","ns_per_op":5.0}]}`); err != nil {
		t.Fatal(err)
	}
	traj, err := buildTrajectory([]string{pr3, pr6})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(traj.Points), 2; got != want || traj.Points[0] != "PR3" || traj.Points[1] != "PR6" {
		t.Fatalf("points = %v", traj.Points)
	}
	if got, want := len(traj.Benchmarks), 3; got != want {
		t.Fatalf("merged %d benchmarks, want %d", got, want)
	}
	hot := traj.Benchmarks[0]
	if hot.Name != "BenchmarkHot" || len(hot.Series) != 2 || hot.Delta != 0.25 {
		t.Errorf("full-history entry = %+v, want 40→10 delta 0.25", hot)
	}
	// A benchmark present at only one point keeps its single-point series
	// and reports no delta.
	gone := traj.Benchmarks[1]
	if gone.Name != "BenchmarkGone" || len(gone.Series) != 1 || gone.Delta != 0 {
		t.Errorf("retired entry = %+v", gone)
	}
	if traj.Benchmarks[2].Name != "BenchmarkNew" || traj.Benchmarks[2].Series[0].Point != "PR6" {
		t.Errorf("late entry = %+v", traj.Benchmarks[2])
	}

	if _, err := buildTrajectory([]string{dir + "/BENCH_PR7.json"}); err == nil {
		t.Error("missing report file must error")
	}
	bad := dir + "/BENCH_PR99.json"
	if err := writeFile(bad, "not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := buildTrajectory([]string{bad}); err == nil {
		t.Error("malformed report file must error")
	}
	if _, err := buildTrajectory([]string{pr3, dir + "/BENCH_PR6_BASELINE.json"}); err == nil {
		t.Error("a report without a PR number must error: it has no place in the stack")
	}
}

// The points follow the PR stack even when the files arrive in lexical
// order, as a glob or make's $(sort) lists them: PR13 sorts before PR3.
func TestBuildTrajectoryOrdersByPRNumber(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for _, p := range []struct {
		name string
		ns   float64
	}{{"BENCH_PR13.json", 30}, {"BENCH_PR3.json", 20}, {"BENCH_PR9.json", 25}} {
		path := dir + "/" + p.name
		if err := writeFile(path, fmt.Sprintf(`{"benchmarks":[{"name":"BenchmarkHot","ns_per_op":%g}]}`, p.ns)); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	sort.Strings(paths)
	traj, err := buildTrajectory(paths)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"PR3", "PR9", "PR13"}; !reflect.DeepEqual(traj.Points, want) {
		t.Fatalf("points = %v, want %v", traj.Points, want)
	}
	hot := traj.Benchmarks[0]
	if hot.Series[0].Point != "PR3" || hot.Series[2].Point != "PR13" || hot.Delta != 1.5 {
		t.Fatalf("series = %+v delta %v, want PR3→PR13 with delta 30/20 = 1.5", hot.Series, hot.Delta)
	}
}

// writeFile is a test shorthand for dropping fixture files.
func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
