package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"io"
	"math"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rtseed/internal/trading"
	"rtseed/internal/workload"
)

func testFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("rtseed-feedd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestRunRejectsBadConfig(t *testing.T) {
	if err := run(&options{listen: "256.256.256.256:1", ticks: 1, seed: 1, vol: 0.001, symbol: -1}); err == nil {
		t.Fatal("bad listen address accepted")
	}
	if err := run(&options{listen: "127.0.0.1:0", ticks: 1, seed: 1, vol: -1, symbol: -1}); err == nil {
		t.Fatal("negative volatility accepted")
	}
	if err := run(&options{listen: "127.0.0.1:0", ticks: 1, seed: 1, vol: 0.001, replay: "/nonexistent/trace.rtk", symbol: -1}); err == nil {
		t.Fatal("missing replay file accepted")
	}
}

func TestParseFlagsErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-ticks", "0"}, "-ticks"},
		{[]string{"-ticks", "-5"}, "-ticks"},
		{[]string{"-vol", "-0.1"}, "-vol"},
		{[]string{"-vol", "NaN"}, "-vol"},
		{[]string{"-vol", "+Inf"}, "-vol"},
		{[]string{"-vol", "-Inf"}, "-vol"},
		{[]string{"-symbol", "5"}, "-symbol"},
		{[]string{"-symbol", "-2"}, "-symbol"},
	} {
		_, err := parseFlags(testFlagSet(), c.args)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("args %v: error %v, want one naming %s", c.args, err, c.flag)
		}
	}
	for _, args := range [][]string{{}, {"-vol", "0"}, {"-ticks", "1"}, {"-symbol", "-1"}, {"-replay", "a.rtk", "-symbol", "4"}} {
		if _, err := parseFlags(testFlagSet(), args); err != nil {
			t.Errorf("args %v: %v, want accepted", args, err)
		}
	}
}

// FuzzParseFlags parses arbitrary command lines: parseFlags must never
// panic, and every command line it accepts must be servable.
func FuzzParseFlags(f *testing.F) {
	for _, seed := range []string{"", "-ticks 30", "-ticks 0", "-vol NaN", "-vol 1e308", "-symbol 5",
		"-replay m.rtk -symbol 2", "-listen :0 -seed 7", "-h"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		o, err := parseFlags(testFlagSet(), strings.Fields(line))
		if err != nil {
			return
		}
		if o.ticks < 1 || !(o.vol >= 0) || math.IsInf(o.vol, 1) {
			t.Fatalf("%q accepted with ticks %d, vol %v", line, o.ticks, o.vol)
		}
		if o.replay == "" && o.symbol != -1 {
			t.Fatalf("%q accepted with symbol %d but no replay", line, o.symbol)
		}
	})
}

// writeTestTrace records a small flash-crash trace and returns its path plus
// the decoded ticks for comparison.
func writeTestTrace(t *testing.T) (string, []workload.Tick) {
	t.Helper()
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
	tr := src.Trace(50)
	path := filepath.Join(t.TempDir(), "trace.rtk")
	if err := workload.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	return path, tr.Ticks
}

// TestServeReplay serves a recorded trace over TCP and checks a client reads
// the trace's quotes back.
func TestServeReplay(t *testing.T) {
	path, ticks := writeTestTrace(t)
	feed, err := replaySource(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := trading.NewFeedServer(feed)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln, 5)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	for i := 0; i < 5; i++ {
		if !sc.Scan() {
			t.Fatalf("stream ended after %d ticks: %v", i, sc.Err())
		}
		var tk trading.Tick
		if err := json.Unmarshal(sc.Bytes(), &tk); err != nil {
			t.Fatal(err)
		}
		if tk.Bid != ticks[i].Bid || tk.Ask != ticks[i].Ask {
			t.Errorf("tick %d: got %+v, trace has %+v", i, tk, ticks[i])
		}
	}
	ln.Close()
	<-done
}
