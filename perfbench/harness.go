package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rtseed/internal/trace"
)

// metric is one named number with its unit, as printed on the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one benchmark invocation shares across its phases.
type run struct {
	seed   uint64
	ops    int       // timed ops
	spans  *recorder // nil on an untraced run
	out    io.Writer // human-readable report lines
	checks []string  // failed end-of-run checks
	failed int       // failed timed ops

	e2e   map[string]metric // end-to-end metrics, host and simulated
	layer map[string]metric // per-layer metrics (traced run only)
}

func (r *run) traced() bool { return r.spans != nil }

// check records a failed outcome check when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

func (r *run) setE2E(name string, v float64, unit string) { r.e2e[name] = metric{v, unit} }

func (r *run) setLayer(name string, v float64, unit string) {
	if r.layer != nil {
		r.layer[name] = metric{v, unit}
	}
}

// setups builds the system n times from scratch and returns the last build
// and the median build time, in process CPU time as the ops are timed.
// Each build is one "setup" span. Before each, the previous build is
// dropped, the heap collected and its free memory returned to the OS, so
// every build starts from the same empty heap: none pays for the garbage
// of the one before it, and none finds memory the one before it left
// mapped.
func setups[S any](r *run, n int, build func() (S, error)) (S, time.Duration, error) {
	var s, none S
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		s = none
		debug.FreeOSMemory()
		id := r.spans.begin("setup", -1)
		start := cpuTime()
		var err error
		s, err = build()
		times = append(times, float64(cpuTime()-start))
		r.spans.end(id)
		if err != nil {
			return none, 0, err
		}
	}
	fmt.Fprintf(r.out, "setup: %d builds, CPU ms", n)
	for _, t := range times {
		fmt.Fprintf(r.out, " %.2f", t/1e6)
	}
	fmt.Fprintln(r.out)
	return s, time.Duration(median(times)), nil
}

// loop is what the timed phase measured.
type loop struct {
	opNs   []float64     // host CPU time of each op
	opWall []float64     // host wall time of each op
	simOp  time.Duration // simulated time one op advances
	wall   time.Duration // host wall time of the whole phase
	cpu    time.Duration // process CPU time (user+sys) of the whole phase
	sim    time.Duration // simulated time advanced by successful ops
}

// timeOps runs r.ops ops closed loop with a single caller. op does one
// unit of work, simOp of simulated time; an op that returns an error counts
// as failed. Each op is timed in process CPU time and in wall time. On a
// traced run each op is also an "op" span carrying its index, so calls the
// op makes show as its children.
func (r *run) timeOps(simOp time.Duration, op func(i int) error) loop {
	l := loop{opNs: make([]float64, 0, r.ops), opWall: make([]float64, 0, r.ops), simOp: simOp}
	runtime.GC()
	cpu0 := cpuTime()
	start := time.Now()
	for i := 0; i < r.ops; i++ {
		id := r.spans.begin("op", i)
		c0, w0 := cpuTime(), time.Now()
		err := op(i)
		l.opWall = append(l.opWall, float64(time.Since(w0)))
		l.opNs = append(l.opNs, float64(cpuTime()-c0))
		r.spans.end(id)
		if err != nil {
			r.failed++
			fmt.Fprintf(r.out, "op %d failed: %v\n", i, err)
			continue
		}
		l.sim += simOp
	}
	l.wall = time.Since(start)
	l.cpu = cpuTime() - cpu0
	return l
}

// report sets the host-time end-to-end metrics every workload shares.
//
// A shared host steals the VM's CPUs in bursts of milliseconds. Wall time
// counts the steal and process CPU time does not, so the per-op metrics
// are CPU times and the wall-clock rate is taken at the median op, which a
// burst that hits a minority of ops does not move; the mean wall rate is
// printed on the report line beside it.
func (r *run) report(l loop, setup time.Duration) {
	sorted := append([]float64(nil), l.opNs...)
	sort.Float64s(sorted)
	r.setE2E("sim_s_per_wall_s", l.simOp.Seconds()/(median(l.opWall)/1e9), "s/s")
	r.setE2E("sim_s_per_cpu_s", l.sim.Seconds()/l.cpu.Seconds(), "s/s")
	r.setE2E("op_ms_p50", quantile(sorted, 0.5)/1e6, "ms")
	p, v, beyond := tail(sorted)
	r.setE2E("op_ms_tail", v/1e6, "ms")
	r.setE2E("max_rss_mb", peakRSSMiB(), "MiB")
	r.setE2E("setup_s", setup.Seconds(), "s")
	fmt.Fprintf(r.out, "timed: %d ops, %.3f s wall (mean %.6g sim s per wall s), %.3f s cpu, %.1f sim s; op_ms_tail is p%s of op CPU times (%d ops beyond it)\n",
		len(l.opNs), l.wall.Seconds(), l.sim.Seconds()/l.wall.Seconds(), l.cpu.Seconds(), l.sim.Seconds(),
		strconv.FormatFloat(p*100, 'f', -1, 64), beyond)
	if r.traced() {
		r.setLayer("bench.span_overhead", spanCost()/quantile(sorted, 0.5), "fraction")
	}
}

// tailLadder is the set of percentiles op_ms_tail and resp_ms_tail choose
// from: the highest one with at least ten samples beyond it.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tail returns the highest ladder percentile with at least ten samples
// beyond it, its value, and how many samples lie beyond it. sorted must be
// ascending; with fewer than eleven samples it falls back to the median.
func tail(sorted []float64) (p, v float64, beyond int) {
	for _, p := range tailLadder {
		idx := rankIndex(len(sorted), p)
		if n := len(sorted) - 1 - idx; n >= 10 {
			return p, sorted[idx], n
		}
	}
	idx := rankIndex(len(sorted), 0.5)
	return 0.5, sorted[idx], len(sorted) - 1 - idx
}

// rankIndex is the nearest-rank index of percentile p in n samples.
func rankIndex(n int, p float64) int {
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return idx
}

// quantile returns the nearest-rank percentile p of an ascending slice.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankIndex(len(sorted), p)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM). It is
// read from /proc rather than getrusage because ru_maxrss survives exec and
// would report the launcher's peak if that were larger.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// heapAlloc is the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// span is one timed call the benchmark made into a layer. Times are ns
// since the recorder started; Parent indexes the enclosing span (-1 at the
// root) and Op is the timed op the span belongs to (-1 outside the loop).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// recorder keeps spans in memory; they are written once, at exit. A nil
// recorder records nothing, which is how untraced runs skip tracing.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, op int) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
		if op < 0 {
			op = r.spans[parent].Op
		}
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Op: op})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

// do runs fn inside a span named name.
func (r *recorder) do(name string, fn func()) {
	id := r.begin(name, -1)
	fn()
	r.end(id)
}

// durations returns the duration of every span named name, in order.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	if r == nil {
		return out
	}
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// medianMs is the median duration of the spans named name, in ms.
func (r *recorder) medianMs(name string) float64 {
	d := r.durations(name)
	if len(d) == 0 {
		return 0
	}
	return median(d) / 1e6
}

// write fills in self times (duration minus the time child spans cover)
// and writes every span as JSON to path.
func (r *recorder) write(path string) error {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i := range r.spans {
		r.spans[i].Self = r.spans[i].End - r.spans[i].Start - child[i]
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanCost is the host ns one begin/end pair costs, measured on a scratch
// recorder; each op records one such pair around its own call.
func spanCost() float64 {
	const n = 1 << 16
	r := newRecorder()
	r.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin("op", i))
	}
	return float64(time.Since(start)) / n
}

// kindCounts counts trace records by kind through a Tracer tap.
type kindCounts [256]uint64

func (c *kindCounts) tap(rec trace.Record) { c[rec.Kind]++ }

// since returns the counts added after base was copied.
func (c *kindCounts) since(base *kindCounts) *kindCounts {
	var d kindCounts
	for i := range c {
		d[i] = c[i] - base[i]
	}
	return &d
}

// report sets the kernel.*_per_s metrics: records of each kind per
// simulated second over a span of simulated time.
func (c *kindCounts) report(r *run, span time.Duration) {
	for _, k := range []struct {
		name string
		kind trace.Kind
	}{
		{"kernel.dispatch_per_s", trace.KindDispatch},
		{"kernel.preempt_per_s", trace.KindPreempt},
		{"kernel.block_per_s", trace.KindBlock},
		{"kernel.sleep_per_s", trace.KindSleep},
		{"kernel.timer_fire_per_s", trace.KindTimerFire},
	} {
		r.setLayer(k.name, float64(c[k.kind])/span.Seconds(), "1/s")
	}
}
