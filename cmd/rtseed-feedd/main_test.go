package main

import (
	"bufio"
	"encoding/json"
	"net"
	"path/filepath"
	"testing"
	"time"

	"rtseed/internal/trading"
	"rtseed/internal/workload"
)

func TestRunRejectsBadConfig(t *testing.T) {
	if err := run("256.256.256.256:1", 1, 1, 0.001, "", -1); err == nil {
		t.Fatal("bad listen address accepted")
	}
	if err := run("127.0.0.1:0", 1, 1, -1, "", -1); err == nil {
		t.Fatal("negative volatility accepted")
	}
	if err := run("127.0.0.1:0", 1, 1, 0.001, "/nonexistent/trace.rtk", -1); err == nil {
		t.Fatal("missing replay file accepted")
	}
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
