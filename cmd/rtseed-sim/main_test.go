package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"

	"rtseed/internal/golden"
)

// runArgs parses args as the command line and runs the simulation.
func runArgs(t *testing.T, args ...string) error {
	t.Helper()
	o, err := parseFlags(flag.NewFlagSet("rtseed-sim", flag.ContinueOnError), args)
	if err != nil {
		t.Fatalf("args %v: %v", args, err)
	}
	return run(io.Discard, o)
}

func TestRunPRMWPTraceGantt(t *testing.T) {
	if err := runArgs(t, "-tasks", "tau1:m=25ms,w=25ms,T=100ms,o=1s,np=2", "-sched", "prmwp",
		"-horizon", "300ms", "-margin", "5ms", "-trace", "-gantt"); err != nil {
		t.Fatal(err)
	}
}

// TestRunPRMWPTraceNoFinishedJob runs the default task (T = 1s) with a
// horizon before its first job ends: -trace has no job to plot and must say
// so instead of indexing an empty record list.
func TestRunPRMWPTraceNoFinishedJob(t *testing.T) {
	err := runArgs(t, "-tasks", "tau1:m=250ms,w=250ms,T=1s,o=1s,np=8", "-sched", "prmwp",
		"-horizon", "100ms", "-margin", "20ms", "-trace")
	if err == nil {
		t.Fatal("-trace with no finished job accepted")
	}
	for _, want := range []string{"tau1", "100ms"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

// TestGoldenReport pins the bytes of `rtseed-sim -trace -gantt`: the default
// task set's statistics, its Fig. 3 curve and its Gantt chart.
func TestGoldenReport(t *testing.T) {
	o, err := parseFlags(flag.NewFlagSet("rtseed-sim", flag.ContinueOnError), []string{"-trace", "-gantt"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "rtseed-sim -trace -gantt", buf.Bytes())
}

func TestRunGeneral(t *testing.T) {
	if err := runArgs(t, "-tasks", "tau1:m=25ms,w=25ms,T=100ms", "-sched", "general", "-load", "cpu",
		"-horizon", "300ms", "-margin", "5ms", "-trace"); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadArgs(t *testing.T) {
	if err := runArgs(t, "-tasks", "x"); err == nil {
		t.Fatal("bad spec accepted")
	}
}

// TestParseFlagsErrors covers the rejection paths: unknown names, a horizon
// with nothing to simulate under either scheduler, and a negative margin,
// which would move optional deadlines past the analysed ones.
func TestParseFlagsErrors(t *testing.T) {
	bad := [][]string{
		{"-sched", "bogus"},
		{"-tasks", "a:m=1ms,w=1ms,T=10ms", "-sched", "bogus", "-horizon", "1s"},
		{"-policy", "bogus"},
		{"-load", "bogus"},
		{"-horizon", "0"},
		{"-horizon", "-1s"},
		{"-sched", "general", "-horizon", "0"},
		{"-margin", "-1ns"},
		{"-margin", "-249ms"},
	}
	for _, args := range bad {
		fs := flag.NewFlagSet("rtseed-sim", flag.ContinueOnError)
		fs.SetOutput(&bytes.Buffer{})
		if _, err := parseFlags(fs, args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// FuzzParseFlags parses arbitrary command lines: parseFlags must never
// panic, and every command line it accepts must be runnable.
func FuzzParseFlags(f *testing.F) {
	for _, seed := range []string{"", "-sched general -horizon 300ms", "-horizon 0", "-policy two -load cpumem",
		"-tasks a:m=1ms,w=1ms,T=10ms -trace -gantt", "-margin -1s", "-h"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		fs := flag.NewFlagSet("rtseed-sim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o, err := parseFlags(fs, strings.Fields(line))
		if err != nil {
			return
		}
		if o.horizon <= 0 || o.margin < 0 || (o.sched != "prmwp" && o.sched != "general") {
			t.Fatalf("%q accepted with horizon %v, margin %v, scheduler %q", line, o.horizon, o.margin, o.sched)
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
// must exit 1 with an error naming the output, and a flag error (an unknown
// scheduler, a negative margin) exits 2 naming the flag before it simulates
// anything.
func TestUnwritableReportFails(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("no /dev/full on this system")
	}
	defer full.Close()
	for _, c := range []struct {
		args []string
		code int
		name string
	}{
		{nil, 1, "/dev/stdout"},
		{[]string{"-sched", "foo"}, 2, "-sched"},
		{[]string{"-margin", "-249ms"}, 2, "-margin"},
	} {
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "RTSEED_RUN_MAIN=1")
		cmd.Stdout = full
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != c.code || !strings.Contains(stderr.String(), c.name) {
			t.Errorf("%v: %v, stderr %q; want exit status %d naming %s", c.args, err, stderr.String(), c.code, c.name)
		}
	}
}
