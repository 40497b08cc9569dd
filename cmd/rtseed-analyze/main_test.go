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

	"rtseed/internal/golden"
)

func testFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("rtseed-analyze", flag.ContinueOnError)
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
	if o.m != 57 || o.accept || o.acceptN != 6 || o.acceptSets != 200 {
		t.Errorf("unexpected defaults: %+v", o)
	}
}

func TestParseFlagsRejectsNonPositiveWorkers(t *testing.T) {
	for _, bad := range []string{"0", "-1", "-8"} {
		_, err := parseFlags(testFlagSet(), []string{"-accept", "-workers", bad})
		if err == nil {
			t.Errorf("-workers %s: accepted, want error", bad)
			continue
		}
		if !strings.Contains(err.Error(), "GOMAXPROCS") {
			t.Errorf("-workers %s: error %q should point at the GOMAXPROCS default", bad, err)
		}
	}
}

// sixTasks has two tasks tied at a 10 ms period; first-fit decreasing on
// three processors places b,f,e on processor 0 and a,c,d on processor 1.
const sixTasks = "a:m=2ms,w=1ms,T=10ms;b:m=3ms,w=2ms,T=15ms;c:m=1ms,w=1ms,T=10ms;" +
	"d:m=4ms,w=4ms,T=40ms;e:m=5ms,w=5ms,T=50ms;f:m=2ms,w=2ms,T=12ms"

// TestGoldenReport pins the bytes of the default analysis, of a partition
// with tied periods, and of a short acceptance sweep. The recorded command
// lines quote the spec, so each one pasted into a shell prints its digest.
func TestGoldenReport(t *testing.T) {
	for _, c := range []struct {
		cmdline string
		args    []string
	}{
		{"rtseed-analyze", nil},
		{`rtseed-analyze -m 3 -tasks "` + sixTasks + `"`, []string{"-m", "3", "-tasks", sixTasks}},
		{"rtseed-analyze -accept -accept-sets 20", []string{"-accept", "-accept-sets", "20"}},
	} {
		o, err := parseFlags(testFlagSet(), c.args)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := run(&buf, o); err != nil {
			t.Fatal(err)
		}
		golden.Check(t, c.cmdline, buf.Bytes())
	}
}

// TestParseFlagsErrors: a processor count, set size or set count below 1
// is rejected at the flag level, naming the flag.
func TestParseFlagsErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-m", "0"},
		{"-m", "-3"},
		{"-accept", "-accept-n", "0"},
		{"-accept", "-accept-sets", "0"},
	} {
		_, err := parseFlags(testFlagSet(), args)
		if err == nil || !strings.Contains(err.Error(), args[len(args)-2]) {
			t.Errorf("%v: error %v, want one naming %s", args, err, args[len(args)-2])
		}
	}
}

func TestRunPaperTask(t *testing.T) {
	if err := runWithSource(io.Discard, "tau1:m=250ms,w=250ms,T=1s,o=1s,np=8", "", 57); err != nil {
		t.Fatal(err)
	}
}

func TestRunMultiTask(t *testing.T) {
	if err := runWithSource(io.Discard, "a:m=2ms,w=2ms,T=10ms; b:m=5ms,w=3ms,T=40ms", "", 4); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnschedulableStillReports(t *testing.T) {
	// Unschedulable sets are reported, not errors.
	if err := runWithSource(io.Discard, "a:m=6ms,w=3ms,T=10ms; b:m=6ms,w=3ms,T=10ms", "", 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadSpec(t *testing.T) {
	if err := runWithSource(io.Discard, "garbage", "", 4); err == nil {
		t.Fatal("bad spec accepted")
	}
}

func TestRunAcceptance(t *testing.T) {
	if err := runAcceptance(io.Discard, 3, 10, 2, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunAcceptanceSpec(t *testing.T) {
	if err := runAcceptance(io.Discard, 3, 10, 2, "flash-crash"); err != nil {
		t.Fatal(err)
	}
	if err := runAcceptance(io.Discard, 3, 10, 2, "no-such-spec.json"); err == nil {
		t.Fatal("missing spec accepted")
	}
}

func TestRunFromTaskFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "set.json")
	if err := os.WriteFile(path, []byte(`{"tasks": [{"name": "f", "mandatory": "2ms", "windup": "2ms", "period": "20ms"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runWithSource(io.Discard, "ignored", path, 4); err != nil {
		t.Fatal(err)
	}
	if err := runWithSource(io.Discard, "ignored", filepath.Join(t.TempDir(), "missing.json"), 4); err == nil {
		t.Fatal("missing file accepted")
	}
}

// FuzzParseFlags parses arbitrary command lines: parseFlags must never
// panic, and every command line it accepts must be runnable.
func FuzzParseFlags(f *testing.F) {
	for _, seed := range []string{"", "-accept -accept-n 6 -accept-sets 20", "-accept -workers 0", "-m 4 -tasks a:m=1ms,w=1ms,T=10ms", "-taskfile set.json", "-h",
		"-m 0", "-m -3", "-accept -accept-n 0", "-accept -accept-sets 0"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		o, err := parseFlags(testFlagSet(), strings.Fields(line))
		if err != nil {
			return
		}
		if o.workers < 1 || o.m < 1 || o.acceptN < 1 || o.acceptSets < 1 {
			t.Fatalf("%q accepted with workers %d, m %d, accept-n %d, accept-sets %d",
				line, o.workers, o.m, o.acceptN, o.acceptSets)
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

// TestUnwritableReportFails: a report that cannot be written to stdout,
// plain or -accept, must exit 1 with an error naming the output.
func TestUnwritableReportFails(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("no /dev/full on this system")
	}
	defer full.Close()
	for _, args := range [][]string{nil, {"-accept", "-accept-n", "3", "-accept-sets", "5"}} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "RTSEED_RUN_MAIN=1")
		cmd.Stdout = full
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(stderr.String(), "/dev/stdout") {
			t.Errorf("%v: %v, stderr %q; want exit status 1 naming /dev/stdout", args, err, stderr.String())
		}
	}
}
