package main

import (
	"flag"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"rtseed/internal/task"
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

func TestRunPaperTask(t *testing.T) {
	if err := runWithSource("tau1:m=250ms,w=250ms,T=1s,o=1s,np=8", "", 57); err != nil {
		t.Fatal(err)
	}
}

func TestRunMultiTask(t *testing.T) {
	if err := runWithSource("a:m=2ms,w=2ms,T=10ms; b:m=5ms,w=3ms,T=40ms", "", 4); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnschedulableStillReports(t *testing.T) {
	// Unschedulable sets are reported, not errors.
	if err := runWithSource("a:m=6ms,w=3ms,T=10ms; b:m=6ms,w=3ms,T=10ms", "", 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadSpec(t *testing.T) {
	if err := runWithSource("garbage", "", 4); err == nil {
		t.Fatal("bad spec accepted")
	}
}

func TestRunAcceptance(t *testing.T) {
	if err := runAcceptance(3, 10, 2, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunAcceptanceSpec(t *testing.T) {
	if err := runAcceptance(3, 10, 2, "flash-crash"); err != nil {
		t.Fatal(err)
	}
	if err := runAcceptance(3, 10, 2, "no-such-spec.json"); err == nil {
		t.Fatal("missing spec accepted")
	}
}

func TestRunFromTaskFile(t *testing.T) {
	set := task.MustNewSet(task.Uniform("f", 2*time.Millisecond, 2*time.Millisecond, 0, 0, 20*time.Millisecond))
	path := filepath.Join(t.TempDir(), "set.json")
	if err := set.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := runWithSource("ignored", path, 4); err != nil {
		t.Fatal(err)
	}
	if err := runWithSource("ignored", filepath.Join(t.TempDir(), "missing.json"), 4); err == nil {
		t.Fatal("missing file accepted")
	}
}

// FuzzParseFlags parses arbitrary command lines: parseFlags must never
// panic, and every command line it accepts must be runnable.
func FuzzParseFlags(f *testing.F) {
	for _, seed := range []string{"", "-accept -accept-n 6 -accept-sets 20", "-accept -workers 0", "-m 4 -tasks a:m=1ms,w=1ms,T=10ms", "-taskfile set.json", "-h"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		o, err := parseFlags(testFlagSet(), strings.Fields(line))
		if err != nil {
			return
		}
		if o.workers < 1 {
			t.Fatalf("%q accepted with workers %d", line, o.workers)
		}
	})
}
