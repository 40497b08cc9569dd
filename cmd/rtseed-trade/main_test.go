package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"rtseed/internal/assign"
	"rtseed/internal/golden"
	"rtseed/internal/machine"
	"rtseed/internal/trace"
	"rtseed/internal/workload"
)

func testFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("rtseed-trade", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// runArgs parses args as the command line and runs the trade, returning
// the report.
func runArgs(args ...string) (string, error) {
	o, err := parseFlags(testFlagSet(), args)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	err = run(&buf, o)
	return buf.String(), err
}

func TestRunShortTrade(t *testing.T) {
	if _, err := runArgs("-ticks", "20", "-seed", "7"); err != nil {
		t.Fatal(err)
	}
}

func TestRunPreciseMode(t *testing.T) {
	if _, err := runArgs("-ticks", "10", "-policy", "all", "-load", "cpu", "-odscale", "0.5", "-seed", "7"); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenReport pins the bytes of `rtseed-trade -ticks 30` and of the
// QoS/latency sweep, `rtseed-trade -sweep`.
func TestGoldenReport(t *testing.T) {
	for _, args := range []string{"-ticks 30", "-sweep"} {
		out, err := runArgs(strings.Fields(args)...)
		if err != nil {
			t.Fatal(err)
		}
		golden.Check(t, "rtseed-trade "+args, []byte(out))
	}
}

// -trace captures the trading run: the decoded file's per-task job count
// matches the tick count and nothing is lost in file-backed mode.
func TestRunWritesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trade.rtt")
	const ticks = 12
	if _, err := runArgs("-ticks", strconv.Itoa(ticks), "-trace", path, "-seed", "7"); err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.TotalLost() != 0 {
		t.Fatalf("file-backed trace lost %d records", decoded.TotalLost())
	}
	a := trace.Analyze(decoded)
	s := a.TaskByName("trader")
	if s == nil {
		t.Fatalf("trader task missing: %+v", a.Tasks)
	}
	if s.Jobs != ticks {
		t.Fatalf("trace shows %d jobs, ran %d ticks", s.Jobs, ticks)
	}
	if s.Terminated == 0 {
		t.Fatal("odscale 2.0 must terminate optional parts")
	}
}

func TestRunSweep(t *testing.T) {
	if err := runSweep(io.Discard, assign.TwoByTwo, machine.CPUMemoryLoad); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadArgs(t *testing.T) {
	if _, err := runArgs("-ticks", "10", "-policy", "bogus"); err == nil {
		t.Fatal("bad policy accepted")
	}
	if _, err := runArgs("-ticks", "10", "-load", "bogus"); err == nil {
		t.Fatal("bad load accepted")
	}
}

// TestParseFlagsErrors covers the rejection paths: each command line used
// to fail inside the simulation, or to ignore a flag, instead of being
// refused with a message that names the flag.
func TestParseFlagsErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-ticks", "0"}, "-ticks"},
		{[]string{"-ticks", "-5"}, "-ticks"},
		{[]string{"-odscale", "-1"}, "-odscale"},
		{[]string{"-odscale", "NaN"}, "-odscale"},
		{[]string{"-odscale", "+Inf"}, "-odscale"},
		{[]string{"-odscale", "-Inf"}, "-odscale"},
		{[]string{"-symbol", "3"}, "-symbol"},
		{[]string{"-symbol", "-2"}, "-symbol"},
		{[]string{"-policy", "bogus"}, "policy"},
		{[]string{"-load", "gpu"}, "load"},
	} {
		_, err := parseFlags(testFlagSet(), c.args)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("args %v: error %v, want one naming %s", c.args, err, c.flag)
		}
	}
	for _, args := range [][]string{{"-odscale", "0"}, {"-ticks", "1"}, {"-symbol", "-1"}, {"-replay", "a.rtk", "-symbol", "4"}} {
		if _, err := parseFlags(testFlagSet(), args); err != nil {
			t.Errorf("args %v: %v, want accepted", args, err)
		}
	}
}

// FuzzParseFlags parses arbitrary command lines: parseFlags must never
// panic, and every command line it accepts must be runnable.
func FuzzParseFlags(f *testing.F) {
	for _, seed := range []string{"", "-ticks 30", "-ticks 0", "-odscale NaN", "-symbol 4294967296",
		"-replay m.rtk -symbol 2", "-sweep -policy two -load cpumem", "-trace t.rtt -seed 7", "-h"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		o, err := parseFlags(testFlagSet(), strings.Fields(line))
		if err != nil {
			return
		}
		if o.ticks < 1 || !(o.odScale >= 0) || math.IsInf(o.odScale, 1) {
			t.Fatalf("%q accepted with ticks %d, odscale %v", line, o.ticks, o.odScale)
		}
		if o.replay == "" && o.symbol != -1 {
			t.Fatalf("%q accepted with replay %q, symbol %d", line, o.replay, o.symbol)
		}
	})
}

// TestRunReplayTrace trades against a recorded .rtk market: the looping
// replay must feed every job, and a missing file or absent symbol must fail.
func TestRunReplayTrace(t *testing.T) {
	spec, ok := workload.BuiltinSpec("flash-crash")
	if !ok {
		t.Fatal("flash-crash builtin missing")
	}
	src, err := workload.Compile(spec, workload.CompileConfig{
		Clients: 8, Seed: 3, Horizon: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "market.rtk")
	if err := workload.WriteFile(path, src.Trace(40)); err != nil {
		t.Fatal(err)
	}
	// 25 jobs > 40 recorded ticks per symbol once filtered: looping covers it.
	if _, err := runArgs("-ticks", "25", "-replay", path, "-seed", "7"); err != nil {
		t.Fatal(err)
	}
	if _, err := runArgs("-ticks", "5", "-replay", "/nonexistent.rtk", "-seed", "7"); err == nil {
		t.Fatal("missing replay file accepted")
	}
	if _, err := runArgs("-ticks", "5", "-replay", path, "-symbol", strconv.Itoa(1<<20), "-seed", "7"); err == nil {
		t.Fatal("absent symbol accepted")
	}
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
	cmd := exec.Command(os.Args[0], "-ticks", "30")
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
