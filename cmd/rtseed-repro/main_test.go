package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"rtseed/internal/golden"
	"rtseed/internal/trace"
)

func testFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("rtseed-repro", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestParseFlagsDefaults(t *testing.T) {
	o, err := parseFlags(testFlagSet(), nil)
	if err != nil {
		t.Fatalf("parseFlags(nil) = %v", err)
	}
	if want := runtime.GOMAXPROCS(0); o.workers != want {
		t.Errorf("default workers = %d, want GOMAXPROCS (%d)", o.workers, want)
	}
	if o.jobs != 100 || o.quick || o.out != "" {
		t.Errorf("unexpected defaults: %+v", o)
	}
}

func TestParseFlagsRejectsNonPositiveWorkers(t *testing.T) {
	for _, bad := range []string{"0", "-1", "-8"} {
		_, err := parseFlags(testFlagSet(), []string{"-workers", bad})
		if err == nil {
			t.Errorf("-workers %s: accepted, want error", bad)
			continue
		}
		if !strings.Contains(err.Error(), "GOMAXPROCS") {
			t.Errorf("-workers %s: error %q should point at the GOMAXPROCS default", bad, err)
		}
	}
}

func TestFooterUsesInjectedClock(t *testing.T) {
	orig := now
	defer func() { now = orig }()
	base := time.Unix(100, 0)
	ticks := []time.Time{base, base.Add(1500 * time.Millisecond)}
	now = func() time.Time {
		tm := ticks[0]
		if len(ticks) > 1 {
			ticks = ticks[1:]
		}
		return tm
	}
	started := now()
	var buf bytes.Buffer
	writeFooter(&buf, now().Sub(started))
	if got, want := buf.String(), "\nGenerated in 1.5s.\n"; got != want {
		t.Errorf("footer = %q, want %q", got, want)
	}
}

// -jobs below 1 is rejected at the flag level (exit 2), alone and with the
// flags that used to swallow it.
func TestParseFlagsRejectsNonPositiveJobs(t *testing.T) {
	for _, bad := range []string{"0", "-1"} {
		for _, args := range [][]string{{"-jobs", bad}, {"-jobs", bad, "-quick"}} {
			if _, err := parseFlags(testFlagSet(), args); err == nil || !strings.Contains(err.Error(), "-jobs") {
				t.Errorf("%v: error %v, want a -jobs error", args, err)
			}
		}
	}
	if o, err := parseFlags(testFlagSet(), []string{"-jobs", "1"}); err != nil || o.jobs != 1 {
		t.Errorf("-jobs 1: got %+v, %v; want accepted", o, err)
	}
}

func TestRunQuickReport(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 3, true, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# RT-Seed reproduction report",
		"; 3 jobs per measurement.",
		"Fig. 8", "Fig. 3",
		"Figure 10", "Figure 11", "Figure 12", "Figure 13",
		"Table I", "acceptance ratio",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

// The binary trace is byte-identical across worker counts: the traced
// scenario is a single-threaded simulation, so -workers (which only
// parallelizes the report's sweeps) must not leak into the trace bytes.
func TestTraceBytesIdenticalAcrossWorkers(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 7, 8} {
		var report bytes.Buffer
		if err := run(&report, 3, true, workers); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "out.rtt")
		if err := writeTraceFile(path); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			t.Fatal("empty trace file")
		}
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: trace bytes differ from workers=1 (%d vs %d bytes)",
				workers, len(got), len(want))
		}
	}
	// The trace itself decodes and carries the scenario's misses.
	decoded, err := trace.Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	a := trace.Analyze(decoded)
	if !a.NonEmpty() {
		t.Fatal("traced scenario yields an empty analysis")
	}
	if len(a.Misses) == 0 {
		t.Fatal("traced scenario should include deadline misses for the analyzer to attribute")
	}
}

func TestParseFlagsProfilePaths(t *testing.T) {
	o, err := parseFlags(testFlagSet(), []string{"-cpuprofile", "cpu.prof", "-memprofile", "mem.prof"})
	if err != nil {
		t.Fatalf("parseFlags = %v", err)
	}
	if o.cpuprofile != "cpu.prof" || o.memprofile != "mem.prof" {
		t.Errorf("profile paths = %q, %q; want cpu.prof, mem.prof", o.cpuprofile, o.memprofile)
	}
	if o, err = parseFlags(testFlagSet(), nil); err != nil || o.cpuprofile != "" || o.memprofile != "" {
		t.Errorf("profiling not off by default: %+v (err %v)", o, err)
	}
}

// TestGoldenReport pins the bytes of `rtseed-repro -quick`. A fixed clock
// leaves the wall-clock footer out: it reads "Generated in 0s.".
func TestGoldenReport(t *testing.T) {
	orig := now
	defer func() { now = orig }()
	now = func() time.Time { return time.Unix(0, 0) }
	o, err := parseFlags(testFlagSet(), []string{"-quick"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, o.jobs, o.quick, o.workers); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "rtseed-repro -quick", buf.Bytes())
}

// FuzzParseFlags parses arbitrary command lines: parseFlags must never
// panic, and every command line it accepts must be runnable.
func FuzzParseFlags(f *testing.F) {
	for _, seed := range []string{"", "-quick", "-jobs 3 -workers 2 -o r.md", "-jobs 0", "-workers 0", "-trace a.rtt -quick", "-h"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		o, err := parseFlags(testFlagSet(), strings.Fields(line))
		if err != nil {
			return
		}
		if o.jobs < 1 || o.workers < 1 {
			t.Fatalf("%q accepted with jobs %d, workers %d", line, o.jobs, o.workers)
		}
	})
}

// TestMain runs the test binary as the command itself when RTSEED_RUN_MAIN
// is set, so a test can check main's exit status and stderr.
func TestMain(m *testing.M) {
	if os.Getenv("RTSEED_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnwritableReportFails: a report that cannot be written, to -o or to
// stdout, must exit 1 with an error naming the output.
func TestUnwritableReportFails(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("no /dev/full on this system")
	}
	defer full.Close()
	for _, c := range []struct {
		args   []string
		stdout *os.File
		name   string
	}{
		{[]string{"-quick", "-o", "/dev/full"}, nil, "/dev/full"},
		{[]string{"-quick"}, full, "/dev/stdout"},
	} {
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "RTSEED_RUN_MAIN=1")
		cmd.Stdout = c.stdout
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(stderr.String(), c.name) {
			t.Errorf("%v: %v, stderr %q; want exit status 1 naming %s", c.args, err, stderr.String(), c.name)
		}
	}
}
