package trace

import (
	"bytes"
	"io"
	"testing"
	"time"

	"rtseed/internal/engine"
)

func at(d time.Duration) engine.Time { return engine.At(d) }

func TestKindStringAndValid(t *testing.T) {
	for k := KindReady; k < kindMax; k++ {
		if !k.Valid() {
			t.Fatalf("kind %d should be valid", k)
		}
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	for _, k := range []Kind{0, kindMax, 255} {
		if k.Valid() {
			t.Fatalf("kind %d should be invalid", k)
		}
		if k.String() != "unknown" {
			t.Fatalf("invalid kind %d renders %q", k, k.String())
		}
	}
}

func TestPackJobPartRoundTrip(t *testing.T) {
	cases := []struct{ job, part int }{
		{0, 0}, {1, 2}, {12345, 0xffff}, {1 << 30, 7},
	}
	for _, c := range cases {
		job, part := UnpackJobPart(PackJobPart(c.job, c.part))
		if job != c.job || part != c.part {
			t.Fatalf("pack(%d,%d) unpacked to (%d,%d)", c.job, c.part, job, part)
		}
	}
}

func TestPackMissRoundTripAndSaturation(t *testing.T) {
	job, late := UnpackMiss(PackMiss(42, 1500*time.Microsecond))
	if job != 42 || late != 1500*time.Microsecond {
		t.Fatalf("unpacked (%d, %v)", job, late)
	}
	// Lateness saturates at ~4.29s instead of corrupting the job index.
	job, late = UnpackMiss(PackMiss(7, time.Hour))
	if job != 7 || late != 0xffffffff {
		t.Fatalf("saturated unpack (%d, %v)", job, late)
	}
	// Negative lateness clamps to zero.
	if _, late = UnpackMiss(PackMiss(1, -time.Second)); late != 0 {
		t.Fatalf("negative lateness kept: %v", late)
	}
}

func TestMissedDeadline(t *testing.T) {
	if MissedDeadline(10*time.Millisecond, 10*time.Millisecond) {
		t.Fatal("finishing exactly at the deadline is a hit")
	}
	if !MissedDeadline(10*time.Millisecond+1, 10*time.Millisecond) {
		t.Fatal("finishing after the deadline is a miss")
	}
}

func TestEmitBeyondConfiguredCPUsPanics(t *testing.T) {
	// The CPU count is sized once, from the machine topology, at New; an
	// emit on a CPU beyond that is a construction bug, not a growth event.
	tr := New(Config{CPUs: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("Emit beyond the configured CPU count must panic")
		}
	}()
	tr.Emit(at(1), 5, 1, KindReady, 0)
}

func TestFileBackedSpillLosesNothing(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{CPUs: 2, Capacity: 4, Sink: &buf})
	const n = 23
	for i := 0; i < n; i++ {
		tr.Emit(at(time.Duration(i)), uint16(i%2), uint32(1+i%2), KindReady, uint64(i))
	}
	if lost := tr.TotalLost(); lost != 0 {
		t.Fatalf("file-backed tracer lost %d records", lost)
	}
	threads := []ThreadInfo{{TID: 1, CPU: 0, Priority: 50, Name: "a"}, {TID: 2, CPU: 1, Priority: 60, Name: "b"}}
	if err := tr.Close(threads); err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded.Records) != n {
		t.Fatalf("decoded %d records, want %d", len(decoded.Records), n)
	}
	for i, rec := range decoded.Records {
		if rec.Seq != uint64(i+1) || rec.Arg != uint64(i) {
			t.Fatalf("record %d: %+v", i, rec)
		}
	}
	if decoded.TotalLost() != 0 {
		t.Fatalf("decoded lost %d", decoded.TotalLost())
	}
	if len(decoded.Threads) != 2 || decoded.ThreadByTID(2).Name != "b" {
		t.Fatalf("threads %+v", decoded.Threads)
	}
}

// A trace file stores CPU numbers as u16: New refuses a topology it could
// not record, and a tracer at the limit still writes a file that decodes
// with one lost count per CPU.
func TestNewBeyondMaxCPUsPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("New with %d CPUs must panic", MaxCPUs+1)
			}
		}()
		New(Config{CPUs: MaxCPUs + 1})
	}()
	var buf bytes.Buffer
	tr := New(Config{CPUs: MaxCPUs, Sink: &buf})
	tr.Emit(at(1), MaxCPUs-1, 1, KindReady, 0)
	if err := tr.Close(nil); err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded.Lost) != MaxCPUs || decoded.Records[0].CPU != MaxCPUs-1 {
		t.Fatalf("%d lost counts, record on CPU %d", len(decoded.Lost), decoded.Records[0].CPU)
	}
}

// A tracer without a sink keeps no per-CPU state: New allocates only the
// tracer, whatever the CPU count.
func TestNewWithoutSinkAllocatesOnlyTheTracer(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { New(Config{CPUs: 228}) }); allocs > 1 {
		t.Fatalf("New allocates %.0f times for 228 CPUs, want at most 1", allocs)
	}
}

func TestCloseWithoutSinkErrors(t *testing.T) {
	tr := New(Config{})
	if err := tr.Close(nil); err == nil {
		t.Fatal("Close on a tracer without a sink must error")
	}
}

// countingSink counts the writes a file-backed tracer makes.
type countingSink struct{ writes int }

func (s *countingSink) Write(p []byte) (int, error) {
	s.writes++
	return len(p), nil
}

// The emit hot path must not allocate, with or without a sink: the spill
// buffer is sized at New, the record is a value, the observer call boxes
// nothing, and a spill writes the preallocated buffer. The file-backed case
// emits across all 228 CPUs of the paper's topology and spills many times
// inside the measured run.
func TestEmitZeroAlloc(t *testing.T) {
	sink := &countingSink{}
	modes := []struct {
		name string
		cfg  Config
	}{
		{"tap/cpus=1", Config{CPUs: 1}},
		{"file/cpus=228", Config{CPUs: 228, Capacity: 64, Sink: sink}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			tr := New(m.cfg)
			var count int
			tr.Tap(func(rec Record) { count++ })
			cpu := 0
			allocs := testing.AllocsPerRun(1000, func() {
				tr.Emit(at(time.Millisecond), uint16(cpu), 1, KindDispatch, 7)
				cpu = (cpu + 1) % m.cfg.CPUs
			})
			if allocs != 0 {
				t.Fatalf("Emit allocates %.1f per op, want 0", allocs)
			}
			if count == 0 {
				t.Fatal("tap not invoked")
			}
		})
	}
	// 1001 records through a 64-record buffer: the header plus 15 spills.
	if sink.writes < 15 {
		t.Fatalf("file-backed run wrote %d times, want a spill every 64 records", sink.writes)
	}
}

func BenchmarkTraceEmit(b *testing.B) {
	b.Run("file/cpus=228", func(b *testing.B) {
		const cpus = 228
		tr := New(Config{CPUs: cpus, Sink: io.Discard})
		b.ReportAllocs()
		b.ResetTimer()
		cpu := 0
		for i := 0; i < b.N; i++ {
			tr.Emit(at(time.Duration(i)), uint16(cpu), 1, KindDispatch, uint64(i))
			if cpu++; cpu == cpus {
				cpu = 0
			}
		}
	})
}
