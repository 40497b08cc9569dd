package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rtseed/internal/golden"
	"rtseed/internal/workload"
)

func testArgs(extra ...string) []string {
	base := []string{
		"-clients", "250", "-machines", "3", "-cores", "4", "-smt", "2",
		"-horizon", "250ms", "-seed", "5",
	}
	return append(base, extra...)
}

func runWithArgs(t *testing.T, args []string) string {
	t.Helper()
	fs := flag.NewFlagSet("rtseed-cluster", flag.ContinueOnError)
	o, err := parseFlags(fs, args)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, nil, o); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestReportDeterministicAcrossWorkers is the command's contract: stdout is
// byte-identical for any -workers value.
func TestReportDeterministicAcrossWorkers(t *testing.T) {
	ref := runWithArgs(t, testArgs("-workers", "1"))
	for _, workers := range []string{"7", "8"} {
		got := runWithArgs(t, testArgs("-workers", workers))
		if got != ref {
			t.Errorf("-workers %s output differs from -workers 1", workers)
		}
	}
	for _, want := range []string{"## admission", "## placement", "## service by class", "## epochs", "simulated events:"} {
		if !strings.Contains(ref, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestReportWithTraceDir checks the per-machine trace files are written and
// the merged summary section appears and is consistent.
func TestReportWithTraceDir(t *testing.T) {
	dir := t.TempDir()
	out := runWithArgs(t, testArgs("-trace-dir", dir))
	if !strings.Contains(out, "## merged trace summary") {
		t.Fatalf("missing merged trace summary section:\n%s", out)
	}
	for i := 0; i < 3; i++ {
		if m, _ := filepath.Glob(filepath.Join(dir, "machine-00*.rtt")); len(m) != 3 {
			t.Fatalf("expected 3 trace files, found %v", m)
		}
	}
}

// TestQuickPreset checks -quick fills the population knobs the command line
// left unset and keeps the ones it set.
func TestQuickPreset(t *testing.T) {
	for _, c := range []struct {
		args              []string
		clients, machines int
		horizon           time.Duration
	}{
		{[]string{"-quick"}, 2000, 4, 300 * time.Millisecond},
		{[]string{"-quick", "-machines", "16"}, 2000, 16, 300 * time.Millisecond},
		{[]string{"-clients", "50", "-horizon", "1s", "-quick"}, 50, 4, time.Second},
	} {
		fs := flag.NewFlagSet("rtseed-cluster", flag.ContinueOnError)
		o, err := parseFlags(fs, c.args)
		if err != nil {
			t.Fatal(err)
		}
		if o.clients != c.clients || o.machines != c.machines || o.horizon != c.horizon {
			t.Errorf("args %v: %d clients, %d machines, horizon %v; want %d, %d, %v",
				c.args, o.clients, o.machines, o.horizon, c.clients, c.machines, c.horizon)
		}
	}
}

// TestParseFlagsErrors covers the rejection paths.
func TestParseFlagsErrors(t *testing.T) {
	bad := [][]string{
		{"-policy", "best-fit"},
		{"-load", "gpu"},
		{"-workers", "0"},
		{"-workers", "-3"},
		{"-clients", "0"},
		{"-machines", "0"},
		{"-horizon", "0"},
		{"-quick", "-horizon", "-1s"},
		{"-cores", "70000", "-smt", "1", "-trace-dir", "d"},
		{"-cores", "40000", "-trace-dir", "d"},
		{"-cores", "0"},
		{"-smt", "-1"},
		{"-smt", "0"},
		{"-epoch", "-5ms"},
		{"-margin", "-1ms"},
	}
	for _, args := range bad {
		fs := flag.NewFlagSet("rtseed-cluster", flag.ContinueOnError)
		fs.SetOutput(&bytes.Buffer{})
		if _, err := parseFlags(fs, args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestSpecAndReplayFlags drives -spec and -replay end to end: a builtin
// bursty spec produces the per-window table, and replaying its recorded
// trace reproduces the generating run's report byte-for-byte.
func TestSpecAndReplayFlags(t *testing.T) {
	dir := t.TempDir()
	trPath := filepath.Join(dir, "fc.rtk")

	spec, _ := workload.BuiltinSpec("flash-crash")
	src, err := workload.Compile(spec, workload.CompileConfig{
		Clients: 250, Seed: 5, Horizon: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteFile(trPath, src.Trace(100)); err != nil {
		t.Fatal(err)
	}

	gen := runWithArgs(t, testArgs("-spec", "flash-crash", "-margin", "0"))
	if !strings.Contains(gen, "## service by window") || !strings.Contains(gen, "crash") {
		t.Fatalf("spec report missing window table:\n%s", gen)
	}
	if !strings.Contains(gen, "workload flash-crash") {
		t.Errorf("spec report missing workload name")
	}
	rep := runWithArgs(t, testArgs("-replay", trPath, "-margin", "0"))
	if gen != rep {
		t.Fatalf("replay report differs from generating run:\n--- gen\n%s\n--- replay\n%s", gen, rep)
	}

	fs := flag.NewFlagSet("rtseed-cluster", flag.ContinueOnError)
	if _, err := parseFlags(fs, testArgs("-spec", "flash-crash", "-replay", trPath)); err == nil {
		t.Error("-spec with -replay parsed, want error")
	}
}

// TestGoldenReport pins the bytes of two reports; the wall-clock timing
// line goes to a separate writer and is left out. `-quick` offers 2,000
// clients to 4 machines. The flash-crash run saturates 32 machines, so
// admission there rolls back thousands of partly placed clients.
func TestGoldenReport(t *testing.T) {
	for _, args := range [][]string{
		{"-quick"},
		{"-spec", "flash-crash", "-clients", "20000", "-machines", "32", "-horizon", "100ms"},
	} {
		golden.Check(t, "rtseed-cluster "+strings.Join(args, " "), []byte(runWithArgs(t, args)))
	}
}

// FuzzParseFlags parses arbitrary command lines: parseFlags must never
// panic, and every command line it accepts must be runnable.
func FuzzParseFlags(f *testing.F) {
	for _, seed := range []string{"", "-quick", "-quick -machines 16", "-clients 0", "-horizon -1s -quick",
		"-spec steady -replay a.rtk", "-policy affinity -load cpu -workers 3", "-h",
		"-cores 0", "-smt -1", "-epoch -5ms", "-margin -1ms", "-margin 0 -epoch 0"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		fs := flag.NewFlagSet("rtseed-cluster", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o, err := parseFlags(fs, strings.Fields(line))
		if err != nil {
			return
		}
		if o.clients < 1 || o.machines < 1 || o.horizon <= 0 || o.workers < 1 {
			t.Fatalf("%q accepted with clients %d, machines %d, horizon %v, workers %d",
				line, o.clients, o.machines, o.horizon, o.workers)
		}
		if o.cores < 1 || o.smt < 1 || o.epoch < 0 || o.margin < 0 {
			t.Fatalf("%q accepted with cores %d, smt %d, epoch %v, margin %v",
				line, o.cores, o.smt, o.epoch, o.margin)
		}
		if o.spec != "" && o.replay != "" {
			t.Fatalf("%q accepted with both -spec and -replay", line)
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
