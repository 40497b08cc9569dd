package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/trace"
)

func testFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("rtseed-trace", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags(testFlagSet(), []string{"-hist", "-misses", "-util", "4", "-check", "t.rtt"})
	if err != nil {
		t.Fatal(err)
	}
	if !o.hist || !o.misses || o.util != 4 || !o.check || o.file != "t.rtt" {
		t.Fatalf("options %+v", o)
	}
	if _, err := parseFlags(testFlagSet(), nil); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := parseFlags(testFlagSet(), []string{"a.rtt", "b.rtt"}); err == nil {
		t.Fatal("two files accepted")
	}
	if _, err := parseFlags(testFlagSet(), []string{"-util", "-1", "t.rtt"}); err == nil {
		t.Fatal("negative -util accepted")
	}
}

// writeTestTrace scripts one two-job task with a termination and a miss and
// writes it to a file, returning the path.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	tr := trace.New(trace.Config{CPUs: 2, Sink: &buf})
	ms := func(d int) engine.Time { return engine.At(time.Duration(d) * time.Millisecond) }
	tr.Emit(ms(0), 0, 1, trace.KindJobRelease, 0)
	tr.Emit(ms(1), 0, 1, trace.KindMandStart, 0)
	tr.Emit(ms(1), 0, 1, trace.KindDispatch, 0)
	tr.Emit(ms(5), 1, 2, trace.KindOptStart, trace.PackJobPart(0, 0))
	tr.Emit(ms(7), 1, 2, trace.KindOptEnd, trace.PackJobPart(0, 0))
	tr.Emit(ms(10), 0, 1, trace.KindJobEnd, 0)
	tr.Emit(ms(10), 0, 1, trace.KindDeadlineMet, 0)
	tr.Emit(ms(10), 0, 1, trace.KindSleep, 0)
	tr.Emit(ms(20), 0, 1, trace.KindJobRelease, 1)
	tr.Emit(ms(21), 0, 1, trace.KindMandStart, 1)
	tr.Emit(ms(21), 0, 1, trace.KindDispatch, 0)
	tr.Emit(ms(30), 1, 2, trace.KindOptTerm, trace.PackJobPart(1, 1))
	tr.Emit(ms(42), 0, 1, trace.KindJobEnd, 1)
	tr.Emit(ms(42), 0, 1, trace.KindDeadlineMiss, trace.PackMiss(1, 2*time.Millisecond))
	tr.Emit(ms(42), 0, 1, trace.KindExit, 0)
	threads := []trace.ThreadInfo{
		{TID: 1, CPU: 0, Priority: 90, Name: "a.mand"},
		{TID: 2, CPU: 1, Priority: 80, Name: "a.opt0"},
	}
	if err := tr.Close(threads); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.rtt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSummaryAndSections(t *testing.T) {
	path := writeTestTrace(t)
	perfetto := filepath.Join(t.TempDir(), "t.json")
	var buf bytes.Buffer
	o := &options{hist: true, misses: true, util: 3, perfetto: perfetto, check: true, file: path}
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"15 records, 2 threads, span 42ms",
		"a", "response time", "release latency",
		"a job 1 at 42ms: late by 2ms",
		"parts terminated at OD [1]",
		"per-CPU utilization (3 buckets",
		"cpu0",
		"wrote " + perfetto,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(perfetto)
	if err != nil {
		t.Fatal(err)
	}
	var pf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &pf); err != nil {
		t.Fatalf("perfetto export is not JSON: %v", err)
	}
	if len(pf.TraceEvents) == 0 {
		t.Fatal("perfetto export has no events")
	}
}

func TestRunCheckFailsOnEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	tr := trace.New(trace.Config{CPUs: 1, Sink: &buf})
	tr.Emit(engine.At(time.Millisecond), 0, 1, trace.KindReady, 0)
	if err := tr.Close(nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "empty.rtt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run(&out, &options{check: true, file: path})
	if err == nil || !strings.Contains(err.Error(), "empty analysis") {
		t.Fatalf("err = %v, want empty-analysis failure", err)
	}
	// Without -check the same trace still prints a summary.
	if err := run(&out, &options{file: path}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsMissingAndCorruptFiles(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, &options{file: filepath.Join(t.TempDir(), "nope.rtt")}); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.rtt")
	if err := os.WriteFile(bad, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&out, &options{file: bad}); err == nil {
		t.Fatal("corrupt file accepted")
	}
}

// FuzzParseFlags parses arbitrary command lines: parseFlags must never
// panic, and every command line it accepts must name one trace file.
func FuzzParseFlags(f *testing.F) {
	for _, seed := range []string{"", "t.rtt", "-hist -misses -util 4 -check t.rtt", "-util -1 t.rtt", "a.rtt b.rtt", "-perfetto p.json t.rtt", "-h"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		o, err := parseFlags(testFlagSet(), strings.Fields(line))
		if err != nil {
			return
		}
		if o.util < 0 || o.file == "" {
			t.Fatalf("%q accepted with util %d, file %q", line, o.util, o.file)
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

// TestUnwritableReportFails: a report that cannot be written to stdout
// must exit 1 with an error naming the output.
func TestUnwritableReportFails(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("no /dev/full on this system")
	}
	defer full.Close()
	path := writeTestTrace(t)
	cmd := exec.Command(os.Args[0], path)
	cmd.Env = append(os.Environ(), "RTSEED_RUN_MAIN=1")
	cmd.Stdout = full
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(stderr.String(), "/dev/stdout") {
		t.Errorf("%v: %v, stderr %q; want exit status 1 naming /dev/stdout", cmd.Args[1:], err, stderr.String())
	}
}
