package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"rtseed/internal/workload"
)

// runArgs parses args as the command line and runs it, writing the output
// to w.
func runArgs(w io.Writer, args []string) error {
	o, err := parseFlags(io.Discard, args)
	if err != nil {
		return err
	}
	return run(w, o)
}

// TestSpecGenInspectValidate drives the full subcommand pipeline: write a
// builtin spec, record a trace from it, inspect and validate the results.
func TestSpecGenInspectValidate(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "fc.json")
	trPath := filepath.Join(dir, "fc.rtk")

	var out bytes.Buffer
	if err := runArgs(&out, []string{"spec", "-builtin", "flash-crash", "-o", specPath}); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runArgs(&out, []string{"validate", specPath}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "valid spec") {
		t.Errorf("validate spec output: %q", out.String())
	}

	out.Reset()
	if err := runArgs(&out, []string{
		"gen", "-spec", specPath, "-clients", "200", "-seed", "6",
		"-horizon", "150ms", "-ticks", "300", "-o", trPath,
	}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "200 clients, 300 ticks") {
		t.Errorf("gen output: %q", out.String())
	}

	out.Reset()
	if err := runArgs(&out, []string{"inspect", trPath}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"workload flash-crash", "## clients by class", "## arrivals by window", "crash"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("inspect output missing %q", want)
		}
	}

	out.Reset()
	if err := runArgs(&out, []string{"validate", trPath}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "valid trace") {
		t.Errorf("validate trace output: %q", out.String())
	}

	// The recorded trace equals a direct in-process generation: gen adds no
	// hidden state.
	spec, _ := workload.BuiltinSpec("flash-crash")
	src, err := workload.Compile(spec, workload.CompileConfig{Clients: 200, Seed: 6, Horizon: 150 * 1e6})
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := workload.Write(&direct, src.Trace(300)); err != nil {
		t.Fatal(err)
	}
	disk, err := os.ReadFile(trPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), disk) {
		t.Error("gen output differs from direct generation")
	}
}

// TestGenDeterministic checks two gen runs with identical flags produce
// byte-identical trace files.
func TestGenDeterministic(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.rtk")
	b := filepath.Join(dir, "b.rtk")
	for _, path := range []string{a, b} {
		var out bytes.Buffer
		if err := runArgs(&out, []string{"gen", "-builtin", "open-close", "-clients", "100", "-o", path}); err != nil {
			t.Fatal(err)
		}
	}
	da, _ := os.ReadFile(a)
	db, _ := os.ReadFile(b)
	if !bytes.Equal(da, db) {
		t.Fatal("gen not deterministic")
	}
}

// TestErrors exercises the failure paths: bad subcommand, conflicting and
// missing flags, bad files.
func TestErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.rtk")
	if err := os.WriteFile(bad, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{},
		{"bogus"},
		{"spec", "-builtin", "nope"},
		{"gen", "-builtin", "steady"}, // missing -o
		{"gen", "-spec", "x.json", "-builtin", "steady", "-o", filepath.Join(dir, "x.rtk")}, // conflict
		{"inspect"},
		{"inspect", bad},
		{"validate", bad},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := runArgs(&out, args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestParseFlagsErrors covers the rejection paths: a negative -ticks used to
// write an empty trace and exit 0.
func TestParseFlagsErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "usage"},
		{[]string{"bogus"}, "usage"},
		{[]string{"gen", "-builtin", "steady"}, "-o"},
		{[]string{"gen", "-o", "x.rtk"}, "-builtin"},
		{[]string{"gen", "-spec", "s.json", "-builtin", "steady", "-o", "x.rtk"}, "-spec"},
		{[]string{"spec", "-builtin", ""}, "-builtin"},
		{[]string{"spec", "-builtin", "nope"}, "nope"},
		{[]string{"gen", "-builtin", "nope", "-o", "x.rtk"}, "nope"},
		{[]string{"gen", "-builtin", "steady", "-ticks", "-1", "-o", "x.rtk"}, "-ticks"},
		{[]string{"gen", "-builtin", "steady", "-clients", "-5", "-o", "x.rtk"}, "-clients"},
		{[]string{"gen", "-builtin", "steady", "-horizon", "0", "-o", "x.rtk"}, "-horizon"},
		{[]string{"gen", "-bogus"}, "-bogus"},
		{[]string{"inspect"}, "inspect"},
		{[]string{"validate", "a.rtk", "b.rtk"}, "validate"},
	} {
		_, err := parseFlags(io.Discard, c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("args %v: error %v, want one naming %s", c.args, err, c.want)
		}
	}
	for _, args := range [][]string{{"spec"}, {"gen", "-builtin", "steady", "-ticks", "0", "-clients", "0", "-o", "x.rtk"}, {"inspect", "a.rtk"}} {
		if _, err := parseFlags(io.Discard, args); err != nil {
			t.Errorf("args %v: %v, want accepted", args, err)
		}
	}
}

// FuzzParseFlags parses arbitrary command lines: parseFlags must never
// panic, and every command line it accepts must be runnable.
func FuzzParseFlags(f *testing.F) {
	for _, seed := range []string{"", "spec -builtin flash-crash", "gen -builtin steady -o a.rtk",
		"gen -ticks -1 -o a.rtk", "gen -clients -5 -horizon 0 -o a.rtk", "inspect a.rtk", "validate", "bogus", "gen -h"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		o, err := parseFlags(io.Discard, strings.Fields(line))
		if err != nil {
			return
		}
		if _, ok := workload.BuiltinSpec(o.builtin); o.builtin != "" && !ok {
			t.Fatalf("%q accepted with unknown builtin %q", line, o.builtin)
		}
		switch o.cmd {
		case "spec":
			if o.builtin == "" {
				t.Fatalf("%q accepted without a builtin", line)
			}
		case "gen":
			if (o.specFile == "") == (o.builtin == "") || o.out == "" || o.clients < 0 || o.ticks < 0 || o.horizon <= 0 {
				t.Fatalf("%q accepted with -spec %q, -builtin %q, -o %q, clients %d, ticks %d, horizon %v",
					line, o.specFile, o.builtin, o.out, o.clients, o.ticks, o.horizon)
			}
		case "inspect", "validate":
			if o.file == "" {
				t.Fatalf("%q accepted without a file", line)
			}
		default:
			t.Fatalf("%q accepted with subcommand %q", line, o.cmd)
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
// must exit 1 with an error naming the output, and a flag error exits 2.
func TestUnwritableReportFails(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("no /dev/full on this system")
	}
	defer full.Close()
	dir := t.TempDir()
	trPath := filepath.Join(dir, "m.rtk")
	if err := runArgs(io.Discard, []string{"gen", "-builtin", "steady", "-clients", "20", "-ticks", "50", "-o", trPath}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		code int
		name string
	}{
		{[]string{"inspect", trPath}, 1, "/dev/stdout"},
		{[]string{"gen", "-builtin", "steady", "-ticks", "-1", "-o", filepath.Join(dir, "x.rtk")}, 2, "-ticks"},
		{[]string{"spec", "-builtin", "nope"}, 2, "nope"},
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
