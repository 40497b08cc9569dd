// Command perfbench is the repository's benchmark: it runs one named
// workload with a given seed, checks the modelled outcome, and prints the
// end-to-end metrics — or, with -trace 1, the per-layer metrics — as one
// JSON object on its last line of output. README.md describes the
// workloads, their ops and the metrics.
//
// Usage:
//
//	perfbench -workload NAME -seed N -seconds S -trace 0|1 [-spans DIR]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// setupReps is how many times each run builds its system; setup_s is the
// median. On the reference host the builds of one run vary in CPU time
// by up to a third, which is why the median is taken over this many.
const setupReps = 11

// A workload is one of the benchmark's inputs. opsPerSecond fixes the
// run's length: a run of S seconds is S*opsPerSecond ops, chosen so the
// timed phase lasts about S seconds on the reference host (README.md). The
// length is part of the workload's definition because paper-np228 keeps
// every job record, so its heap grows with the job count.
type workloadDef struct {
	name         string
	opsPerSecond int
	run          func(*run) error
}

var workloads = []workloadDef{
	{"paper-np228", 62, runPaper},
	{"manytask-16k", 70, runManyTask},
	{"fleet-flash-crash", 25, runFleet},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper-np228, manytask-16k or fleet-flash-crash")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "run length, in seconds of timed work on the reference host")
	traced := fs.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	spansDir := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || *seconds > 60 {
		return fmt.Errorf("-seconds %d outside [1, 60]", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace %d is neither 0 nor 1", *traced)
	}

	r := &run{
		seed: *seed,
		ops:  *seconds * w.opsPerSecond,
		out:  stdout,
		e2e:  map[string]metric{},
	}
	if *traced == 1 {
		r.spans = newRecorder()
		r.layer = map[string]metric{}
	}
	fmt.Fprintf(stdout, "workload %s, seed %d, %d ops, trace %d\n", w.name, r.seed, r.ops, *traced)
	if err := w.run(r); err != nil {
		return err
	}
	for _, c := range r.checks {
		fmt.Fprintln(stdout, "check failed:", c)
	}
	printMetrics(stdout, "end-to-end", r.e2e)

	res := result{
		Correct:   len(r.checks) == 0,
		Attempted: r.ops,
		Failed:    r.failed,
		Metrics:   r.e2e,
	}
	if r.traced() {
		fillLayers(r.layer)
		printMetrics(stdout, "per-layer", r.layer)
		path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.json", w.name, r.seed))
		if err := r.spans.write(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(r.spans.spans), path)
		res.Metrics = r.layer
	} else {
		res.Metrics = pick(r.e2e, endToEnd)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// endToEnd lists the end-to-end metrics every workload reports on its
// result line. resp_ms_*, qos, miss_ratio and admit_ratio are simulated,
// exist only on some workloads, and are 0 where deadlines are all met, so
// they are printed above the result line and carried in the traced run's
// per-layer set instead.
var endToEnd = []string{"sim_s_per_wall_s", "sim_s_per_cpu_s", "op_ms_p50", "op_ms_tail", "max_rss_mb", "setup_s"}

// perLayer lists every per-layer metric with its unit. A workload that
// does not call a layer reports that layer's metrics as 0.
var perLayer = []struct{ name, unit string }{
	{"engine.events_per_op", "count"},
	{"engine.ns_per_event", "ns"},
	{"engine.pending_p50", "count"},
	{"engine.only_ns_per_event", "ns"},
	{"kernel.dispatch_per_s", "1/s"},
	{"kernel.preempt_per_s", "1/s"},
	{"kernel.block_per_s", "1/s"},
	{"kernel.sleep_per_s", "1/s"},
	{"kernel.timer_fire_per_s", "1/s"},
	{"kernel.ns_per_event", "ns"},
	{"core.delta_m_us", "us"},
	{"core.delta_s_us", "us"},
	{"core.delta_b_us", "us"},
	{"core.delta_e_us", "us"},
	{"core.parts_terminated_per_job", "count"},
	{"core.parts_completed_per_job", "count"},
	{"core.parts_discarded_per_job", "count"},
	{"core.heap_kb_per_job", "KB"},
	{"trace.records_per_job", "count"},
	{"trace.spill_mb", "MiB"},
	{"trace.lost", "count"},
	{"trace.ns_per_record", "ns"},
	{"workload.compile_ms", "ms"},
	{"workload.encode_ms", "ms"},
	{"workload.decode_ms", "ms"},
	{"workload.rtk_mb", "MiB"},
	{"cluster.admit_ms", "ms"},
	{"cluster.admitted", "count"},
	{"cluster.admitted_tasks", "count"},
	{"cluster.machines_used", "count"},
	{"cluster.crash_admit_ratio", "fraction"},
	{"cluster.events_per_op", "count"},
	{"cluster.imbalance", "ratio"},
	{"sweep.speedup_x", "x"},
	{"bench.span_overhead", "fraction"},
	{"resp_ms_p50", "ms"},
	{"resp_ms_tail", "ms"},
	{"qos", "fraction"},
	{"miss_ratio", "fraction"},
	{"admit_ratio", "fraction"},
}

// fillLayers reports every per-layer metric a workload left unset as 0.
func fillLayers(m map[string]metric) {
	for _, l := range perLayer {
		if _, ok := m[l.name]; !ok {
			m[l.name] = metric{0, l.unit}
		}
	}
}

func pick(m map[string]metric, names []string) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		out[n] = m[n]
	}
	return out
}

func printMetrics(w io.Writer, title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s:\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
