// Command rtseed-benchjson converts `go test -bench` output into a JSON
// record, the repository's perf-trajectory format: `make bench-json` writes
// results/BENCH_PR3.json and CI uploads it as an artifact, so queue- and
// kernel-hot-path regressions show up as a diff instead of an anecdote.
//
// Usage:
//
//	go test -run=NONE -bench=... -benchmem ./... | rtseed-benchjson [-o FILE] [-baseline FILE]
//
// Lines that are not benchmark results (test status, pkg headers) are
// ignored, so the raw `go test` stream can be piped in unfiltered. Repeated
// results for the same benchmark (a -count run) collapse into one entry at
// the median ns/op, with the sample count recorded. With -baseline, each
// benchmark also present in the given prior report carries its before
// median and the speedup factor, so a PR's perf claim is embedded in the
// artifact instead of living in a commit message.
//
// Trajectory mode folds the per-PR reports into one longitudinal record:
//
//	rtseed-benchjson -trajectory [-o FILE] results/BENCH_PR3.json results/BENCH_PR6.json ...
//
// Each positional argument is a prior report named BENCH_PR<N>.json; its
// BENCH_-stripped basename ("PR3") becomes the point label. Points are
// ordered by N, whatever the argument order — a shell glob or make's $(sort)
// lists PR13 before PR3. Every benchmark that appears in any report gets a
// series of ns/op medians across the points it was measured at, so a hot
// path's history across the PR stack reads out of one file.
//
// Flag errors exit 2: -trajectory without report files or with -baseline,
// and report files without -trajectory.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"rtseed/internal/report"
)

// Result is one benchmark measurement (the median when Samples > 1).
type Result struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are -1 when the benchmark did not report
	// allocations (no -benchmem and no b.ReportAllocs).
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Samples is how many result lines collapsed into this entry; omitted
	// for a single measurement.
	Samples int `json:"samples,omitempty"`
	// BaselineNsPerOp and Speedup compare against the -baseline report:
	// the prior median and baseline/current. Omitted without -baseline or
	// when the baseline lacks this benchmark.
	BaselineNsPerOp float64 `json:"baseline_ns_per_op,omitempty"`
	Speedup         float64 `json:"speedup,omitempty"`
}

// Report is the file layout: the benchmark list plus the context lines the
// test binary prints (goos/goarch/pkg/cpu), which make numbers comparable
// across machines.
type Report struct {
	Context    map[string]string `json:"context,omitempty"`
	Benchmarks []Result          `json:"benchmarks"`
}

// parseBench reads a `go test -bench` stream and collects every benchmark
// result line, plus the goos/goarch/pkg/cpu context header.
func parseBench(r io.Reader) (*Report, error) {
	rep := &Report{Context: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if k, v, ok := strings.Cut(line, ": "); ok && (k == "goos" || k == "goarch" || k == "pkg" || k == "cpu") {
			// Keep the first pkg; later packages in a ./... run would
			// overwrite it with less relevant values.
			if _, seen := rep.Context[k]; !seen {
				rep.Context[k] = v
			}
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		res, err := parseLine(line)
		if err != nil {
			return nil, err
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	rep.Benchmarks = collapse(rep.Benchmarks)
	return rep, nil
}

// collapse merges repeated measurements of the same benchmark (a -count or
// multi-pass run) into one entry at the median ns/op, keeping first-seen
// order. The median's own line supplies iterations and alloc stats — for an
// even sample count, the lower-ns member of the middle pair.
func collapse(in []Result) []Result {
	byName := make(map[string][]Result, len(in))
	var order []string
	for _, r := range in {
		if _, seen := byName[r.Name]; !seen {
			order = append(order, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	out := make([]Result, 0, len(order))
	for _, name := range order {
		group := byName[name]
		if len(group) == 1 {
			out = append(out, group[0])
			continue
		}
		sort.SliceStable(group, func(i, j int) bool { return group[i].NsPerOp < group[j].NsPerOp })
		med := group[(len(group)-1)/2]
		med.Samples = len(group)
		out = append(out, med)
	}
	return out
}

// applyBaseline annotates rep's benchmarks with the prior medians from the
// baseline report.
func applyBaseline(rep *Report, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("bad baseline %s: %v", path, err)
	}
	prior := make(map[string]float64, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		prior[r.Name] = r.NsPerOp
	}
	for i := range rep.Benchmarks {
		b := &rep.Benchmarks[i]
		if before, ok := prior[b.Name]; ok && before > 0 && b.NsPerOp > 0 {
			b.BaselineNsPerOp = before
			b.Speedup = before / b.NsPerOp
		}
	}
	return nil
}

// TrajectoryPoint is one measurement of a benchmark at one PR.
type TrajectoryPoint struct {
	Point   string  `json:"point"`
	NsPerOp float64 `json:"ns_per_op"`
}

// TrajectoryEntry is one benchmark's history across the PR reports it
// appears in. Delta is last/first ns/op over the series — below 1 the path
// got faster across the stack, above 1 it regressed.
type TrajectoryEntry struct {
	Name   string            `json:"name"`
	Series []TrajectoryPoint `json:"series"`
	Delta  float64           `json:"delta,omitempty"`
}

// Trajectory is the longitudinal file layout: the ordered point labels and
// one entry per benchmark ever measured.
type Trajectory struct {
	Points     []string          `json:"points"`
	Benchmarks []TrajectoryEntry `json:"benchmarks"`
}

// pointLabel derives a point name from a report path:
// results/BENCH_PR6.json → "PR6".
func pointLabel(path string) string {
	base := filepath.Base(path)
	base = strings.TrimSuffix(base, filepath.Ext(base))
	return strings.TrimPrefix(base, "BENCH_")
}

// prNumber parses a point label's position in the PR stack: "PR13" → 13.
func prNumber(label string) (int, bool) {
	digits, ok := strings.CutPrefix(label, "PR")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	return n, err == nil
}

// buildTrajectory reads the per-PR reports in PR-number order and merges
// them into one record. Benchmarks keep first-seen order across the
// reports, so the output is a pure function of the inputs.
func buildTrajectory(paths []string) (*Trajectory, error) {
	pr := make(map[string]int, len(paths))
	for _, path := range paths {
		n, ok := prNumber(pointLabel(path))
		if !ok {
			return nil, fmt.Errorf("report %s is not named BENCH_PR<N>.json", path)
		}
		pr[path] = n
	}
	paths = append([]string(nil), paths...)
	sort.SliceStable(paths, func(i, j int) bool { return pr[paths[i]] < pr[paths[j]] })

	traj := &Trajectory{}
	series := map[string][]TrajectoryPoint{}
	var order []string
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep Report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("bad report %s: %v", path, err)
		}
		label := pointLabel(path)
		traj.Points = append(traj.Points, label)
		for _, b := range rep.Benchmarks {
			if b.NsPerOp <= 0 {
				continue
			}
			if _, seen := series[b.Name]; !seen {
				order = append(order, b.Name)
			}
			series[b.Name] = append(series[b.Name], TrajectoryPoint{Point: label, NsPerOp: b.NsPerOp})
		}
	}
	for _, name := range order {
		s := series[name]
		e := TrajectoryEntry{Name: name, Series: s}
		if len(s) > 1 {
			e.Delta = s[len(s)-1].NsPerOp / s[0].NsPerOp
		}
		traj.Benchmarks = append(traj.Benchmarks, e)
	}
	return traj, nil
}

// parseLine decodes one result line:
//
//	BenchmarkName-8   123456   503.8 ns/op   32 B/op   1 allocs/op
//
// The -N GOMAXPROCS suffix is stripped from the name; B/op and allocs/op are
// optional.
func parseLine(line string) (Result, error) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Result{}, fmt.Errorf("short benchmark line %q", line)
	}
	res := Result{BytesPerOp: -1, AllocsPerOp: -1}
	res.Name = f[0]
	if i := strings.LastIndex(res.Name, "-"); i > 0 {
		if _, err := strconv.Atoi(res.Name[i+1:]); err == nil {
			res.Name = res.Name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, fmt.Errorf("bad iteration count in %q: %v", line, err)
	}
	res.Iterations = iters
	for i := 2; i+1 < len(f); i += 2 {
		val, unit := f[i], f[i+1]
		switch unit {
		case "ns/op":
			if res.NsPerOp, err = strconv.ParseFloat(val, 64); err != nil {
				return Result{}, fmt.Errorf("bad ns/op in %q: %v", line, err)
			}
		case "B/op":
			if res.BytesPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Result{}, fmt.Errorf("bad B/op in %q: %v", line, err)
			}
		case "allocs/op":
			if res.AllocsPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Result{}, fmt.Errorf("bad allocs/op in %q: %v", line, err)
			}
		}
	}
	if res.NsPerOp == 0 && res.Iterations == 0 {
		return Result{}, fmt.Errorf("no measurements in %q", line)
	}
	return res, nil
}

// options is the parsed command line.
type options struct {
	out        string
	baseline   string
	trajectory bool
	reports    []string // -trajectory's per-PR report files
}

// parseFlags registers the command's flags on fs, parses args, and
// validates the result. The flag set is injected so tests can parse without
// touching the process-global flag.CommandLine.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.out, "o", "", "write the JSON report to this file (default stdout)")
	fs.StringVar(&o.baseline, "baseline", "", "prior report to compare against (adds baseline_ns_per_op and speedup)")
	fs.BoolVar(&o.trajectory, "trajectory", false, "merge the per-PR report files given as arguments into one longitudinal record")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.reports = fs.Args()
	switch {
	case o.trajectory && len(o.reports) == 0:
		return nil, fmt.Errorf("-trajectory needs at least one report file argument")
	case o.trajectory && o.baseline != "":
		return nil, fmt.Errorf("-baseline does not apply in -trajectory mode")
	case !o.trajectory && len(o.reports) > 0:
		return nil, fmt.Errorf("argument %q: report files are only read with -trajectory; benchmark output comes on stdin", o.reports[0])
	}
	return o, nil
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtseed-benchjson:", err)
		os.Exit(2)
	}
	doc, err := document(o, os.Stdin)
	if err == nil {
		err = report.Emit(o.out, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(doc)
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtseed-benchjson:", err)
		os.Exit(1)
	}
}

// document builds the record o asks for: the trajectory of o.reports, or
// the report of the benchmark stream on stdin.
func document(o *options, stdin io.Reader) (any, error) {
	if o.trajectory {
		return buildTrajectory(o.reports)
	}
	rep, err := parseBench(stdin)
	if err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark results on stdin")
	}
	if o.baseline != "" {
		if err := applyBaseline(rep, o.baseline); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
