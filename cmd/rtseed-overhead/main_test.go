package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"rtseed/internal/golden"
)

func testFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("rtseed-overhead", flag.ContinueOnError)
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
	if o.fig != 0 || o.jobs != 100 || o.quick || o.dist {
		t.Errorf("unexpected defaults: %+v", o)
	}
}

func TestParseFlagsWorkersExplicit(t *testing.T) {
	o, err := parseFlags(testFlagSet(), []string{"-workers", "3", "-fig", "11"})
	if err != nil {
		t.Fatalf("parseFlags = %v", err)
	}
	if o.workers != 3 || o.fig != 11 {
		t.Errorf("got workers=%d fig=%d, want 3, 11", o.workers, o.fig)
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

// -jobs below 1 is rejected at the flag level (exit 2), alone and with the
// flags that used to swallow it.
func TestParseFlagsRejectsNonPositiveJobs(t *testing.T) {
	for _, bad := range []string{"0", "-1"} {
		for _, args := range [][]string{{"-jobs", bad}, {"-jobs", bad, "-dist"}} {
			if _, err := parseFlags(testFlagSet(), args); err == nil || !strings.Contains(err.Error(), "-jobs") {
				t.Errorf("%v: error %v, want a -jobs error", args, err)
			}
		}
	}
	if o, err := parseFlags(testFlagSet(), []string{"-jobs", "1"}); err != nil || o.jobs != 1 {
		t.Errorf("-jobs 1: got %+v, %v; want accepted", o, err)
	}
}

func TestRunQuickSingleFigure(t *testing.T) {
	if err := runFigures(io.Discard, 13, 3, true, 0, "", 2); err != nil {
		t.Fatal(err)
	}
}

// -fig outside {0, 10-13} is rejected at the flag level (exit 2), alone and
// with -dist, which prints no figure.
func TestParseFlagsRejectsUnknownFigure(t *testing.T) {
	for _, bad := range []string{"5", "9", "14", "-1"} {
		for _, args := range [][]string{{"-fig", bad}, {"-dist", "-fig", bad}} {
			if _, err := parseFlags(testFlagSet(), args); err == nil || !strings.Contains(err.Error(), "-fig") {
				t.Errorf("%v: error %v, want a -fig error", args, err)
			}
		}
	}
	for _, fig := range []string{"0", "10", "13"} {
		if _, err := parseFlags(testFlagSet(), []string{"-fig", fig}); err != nil {
			t.Errorf("-fig %s: %v, want accepted", fig, err)
		}
	}
}

func TestRunWithCSV(t *testing.T) {
	path := t.TempDir() + "/figs.csv"
	if err := runFigures(io.Discard, 10, 2, true, 0, path, 2); err != nil {
		t.Fatal(err)
	}
}

func TestRunDistributions(t *testing.T) {
	if err := runDistributions(io.Discard, 3, 0); err != nil {
		t.Fatal(err)
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

// TestGoldenReport pins the bytes of `rtseed-overhead -quick` and of the
// distributions, `rtseed-overhead -dist -jobs 5`.
func TestGoldenReport(t *testing.T) {
	for _, args := range []string{"-quick", "-dist -jobs 5"} {
		o, err := parseFlags(testFlagSet(), strings.Fields(args))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := run(&buf, o); err != nil {
			t.Fatal(err)
		}
		golden.Check(t, "rtseed-overhead "+args, buf.Bytes())
	}
}

// FuzzParseFlags parses arbitrary command lines: parseFlags must never
// panic, and every command line it accepts must be runnable.
func FuzzParseFlags(f *testing.F) {
	for _, seed := range []string{"", "-quick", "-fig 11 -jobs 5 -workers 3", "-jobs 0", "-workers -1", "-dist -seed 9", "-h"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		o, err := parseFlags(testFlagSet(), strings.Fields(line))
		if err != nil {
			return
		}
		if o.jobs < 1 || o.workers < 1 || (o.fig != 0 && (o.fig < 10 || o.fig > 13)) {
			t.Fatalf("%q accepted with jobs %d, workers %d, fig %d", line, o.jobs, o.workers, o.fig)
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
	cmd := exec.Command(os.Args[0], "-quick")
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
