package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"rtseed/internal/engine"
)

// randomRecords drives the tracer with a reproducible random event sequence
// and returns what was emitted, in order.
func randomRecords(rng *rand.Rand, tr *Tracer, n int) []Record {
	var out []Record
	tr.Tap(func(rec Record) { out = append(out, rec) })
	now := time.Duration(0)
	for i := 0; i < n; i++ {
		now += time.Duration(rng.Intn(1_000_000))
		kind := Kind(1 + rng.Intn(int(kindMax)-1))
		cpu := uint16(rng.Intn(4))
		tid := uint32(1 + rng.Intn(8))
		arg := rng.Uint64()
		tr.Emit(engine.At(now), cpu, tid, kind, arg)
	}
	return out
}

// File-backed round trip: spills produce multiple record sections that the
// reader merges back into one ordered stream.
func TestRoundTripFileBackedSpills(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var buf bytes.Buffer
	tr := New(Config{CPUs: 4, Capacity: 8, Sink: &buf})
	emitted := randomRecords(rng, tr, 500)
	if err := tr.Close(nil); err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded.Records) != len(emitted) {
		t.Fatalf("decoded %d, want %d (no record may be lost with a sink)", len(decoded.Records), len(emitted))
	}
	for i := range emitted {
		if decoded.Records[i] != emitted[i] {
			t.Fatalf("record %d = %+v, want %+v", i, decoded.Records[i], emitted[i])
		}
	}
	if decoded.TotalLost() != 0 {
		t.Fatalf("lost %d", decoded.TotalLost())
	}
}

// decodeSpilled decodes what a file-backed tracer has written to its sink
// so far: nothing before the first spill, then header and record sections.
func decodeSpilled(t *testing.T, sink []byte) []Record {
	t.Helper()
	if len(sink) == 0 {
		return nil
	}
	tr, err := Decode(sink)
	if err != nil {
		t.Fatalf("spilled bytes: %v", err)
	}
	return tr.Records
}

// A file-backed tracer holds every emitted record exactly once: at any
// moment its spilled sections are a prefix of the emitted stream at most
// Capacity records short, and once closed its file decodes to the whole
// stream, the thread table and an all-zero lost table — for any spill
// buffer capacity and any CPU count.
func TestFileBackedRecordsAndDecodeAgree(t *testing.T) {
	threads := []ThreadInfo{{TID: 1, CPU: 0, Priority: 90, Name: "a.mand"}, {TID: 2, CPU: 1, Priority: 80, Name: "a.opt0"}}
	for _, capacity := range []int{1, 8, 4096} {
		for _, cpus := range []int{1, 2, 7, 228} {
			rng := rand.New(rand.NewSource(int64(capacity*1000 + cpus)))
			var sink bytes.Buffer
			tr := New(Config{CPUs: cpus, Capacity: capacity, Sink: &sink})
			var emitted []Record
			tr.Tap(func(rec Record) { emitted = append(emitted, rec) })
			n := 2*capacity + 3 + rng.Intn(64)
			for i := 0; i < n; i++ {
				tr.Emit(engine.At(time.Duration(i)*time.Microsecond), uint16(rng.Intn(cpus)),
					uint32(1+rng.Intn(8)), Kind(1+rng.Intn(int(kindMax)-1)), rng.Uint64())
				// Check on both sides of every spill and at a stride between.
				if (i+1)%capacity > 1 && i%509 != 0 && i != n-1 {
					continue
				}
				spilled := decodeSpilled(t, sink.Bytes())
				if len(spilled) < len(emitted)-capacity || !slices.Equal(spilled, emitted[:len(spilled)]) {
					t.Fatalf("cap %d cpus %d after %d emits: spilled %d records, want a prefix of the %d emitted at most %d short",
						capacity, cpus, i+1, len(spilled), len(emitted), capacity)
				}
			}
			if err := tr.Close(threads); err != nil {
				t.Fatal(err)
			}
			decoded, err := Decode(sink.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			want := &Trace{Records: emitted, Threads: threads, Lost: make([]uint64, cpus)}
			if !reflect.DeepEqual(decoded, want) {
				t.Fatalf("cap %d cpus %d: closed file decodes to %d records, threads %v, lost %v; want %d, %v, %d zeros",
					capacity, cpus, len(decoded.Records), decoded.Threads, decoded.Lost, len(emitted), threads, cpus)
			}
		}
	}
}

// perCPULayout encodes recs in the earlier file-backed layout: one ring of
// capacity records per CPU, each spilled as its own 'R' section when it
// fills and the rest flushed in CPU order at close, so sections interleave
// CPUs and arrive out of sequence order.
func perCPULayout(t *testing.T, recs []Record, cpus, capacity int, threads []ThreadInfo) []byte {
	t.Helper()
	var out bytes.Buffer
	out.Write(magic[:])
	out.Write([]byte{Version, 0, 0, 0})
	section := func(chunk []Record) {
		if len(chunk) == 0 {
			return
		}
		buf := make([]byte, sectionHeaderSize+len(chunk)*recordSize)
		buf[0] = secRecords
		binary.LittleEndian.PutUint64(buf[1:], uint64(len(chunk)*recordSize))
		for i, rec := range chunk {
			putRecord(buf[sectionHeaderSize+i*recordSize:], rec)
		}
		out.Write(buf)
	}
	rings := make([][]Record, cpus)
	for _, rec := range recs {
		if len(rings[rec.CPU]) == capacity {
			section(rings[rec.CPU])
			rings[rec.CPU] = nil
		}
		rings[rec.CPU] = append(rings[rec.CPU], rec)
	}
	for _, ring := range rings {
		section(ring)
	}
	if err := writeThreads(&out, threads); err != nil {
		t.Fatal(err)
	}
	if err := writeLost(&out, make([]uint64, cpus)); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// Files written with per-CPU record chunks out of sequence order still
// decode to the same Trace as the shared-buffer layout of the same stream.
func TestDecodePerCPUChunkLayout(t *testing.T) {
	const cpus, capacity = 4, 8
	threads := []ThreadInfo{{TID: 3, CPU: 2, Priority: 70, Name: "solo"}}
	rng := rand.New(rand.NewSource(7))
	var sink bytes.Buffer
	tr := New(Config{CPUs: cpus, Capacity: capacity, Sink: &sink})
	emitted := randomRecords(rng, tr, 300)
	if err := tr.Close(threads); err != nil {
		t.Fatal(err)
	}
	legacy := perCPULayout(t, emitted, cpus, capacity, threads)
	if bytes.Equal(legacy, sink.Bytes()) {
		t.Fatal("per-CPU layout should frame its sections differently")
	}
	var firstSeqs []uint64
	for rest := legacy[12:]; rest[0] == secRecords; {
		firstSeqs = append(firstSeqs, binary.LittleEndian.Uint64(rest[sectionHeaderSize:]))
		rest = rest[sectionHeaderSize+binary.LittleEndian.Uint64(rest[1:]):]
	}
	if sort.SliceIsSorted(firstSeqs, func(i, j int) bool { return firstSeqs[i] < firstSeqs[j] }) {
		t.Fatalf("per-CPU sections start at seqs %v, want them out of order", firstSeqs)
	}
	fromLegacy, err := Decode(legacy)
	if err != nil {
		t.Fatal(err)
	}
	fromShared, err := Decode(sink.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromLegacy, fromShared) {
		t.Fatalf("per-CPU layout decodes to %d records, shared layout to %d; traces differ",
			len(fromLegacy.Records), len(fromShared.Records))
	}
	if !reflect.DeepEqual(fromShared.Records, emitted) {
		t.Fatal("shared layout does not decode to the emitted stream")
	}
}

func TestReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.rtt")
	if err := os.WriteFile(path, validFileBytes(t), 0o644); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded.Records) != 1 {
		t.Fatalf("records %v", decoded.Records)
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.rtt")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestDecodeRejectsMalformedInput(t *testing.T) {
	valid := validFileBytes(t)
	mutate := func(fn func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return fn(b)
	}
	cases := map[string][]byte{
		"empty":           {},
		"short header":    valid[:8],
		"bad magic":       mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad version":     mutate(func(b []byte) []byte { b[8] = 99; return b }),
		"reserved header": mutate(func(b []byte) []byte { binary.LittleEndian.PutUint16(b[10:], 0xffff); return b }),
		"truncated body":  valid[:len(valid)-3],
		"unknown tag":     mutate(func(b []byte) []byte { b[12] = 'Z'; return b }),
		"overrun length":  mutate(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[13:], 1<<40); return b }),
		"bad kind":        mutate(func(b []byte) []byte { b[12+9+30] = 255; return b }),
		"nonzero reserve": mutate(func(b []byte) []byte { b[12+9+31] = 1; return b }),
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		} else if !errors.Is(err, ErrBadFormat) && name != "empty" {
			t.Errorf("%s: error %v does not wrap ErrBadFormat", name, err)
		}
	}
	if _, err := Decode(valid); err != nil {
		t.Fatalf("valid bytes rejected: %v", err)
	}
}

func TestDecodeRejectsDuplicateSections(t *testing.T) {
	// Append a second lost section; the reader must refuse it.
	var dup bytes.Buffer
	if err := writeLost(&dup, []uint64{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(validFileBytes(t), dup.Bytes()...)); err == nil {
		t.Fatal("duplicate lost section accepted")
	}
}

// validFileBytes builds a minimal one-record file: header, then one 'R'
// section at offset 12 whose first record starts at offset 21.
func validFileBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	tr := New(Config{CPUs: 1, Sink: &buf})
	tr.Emit(engine.At(time.Millisecond), 0, 1, KindDispatch, 42)
	if err := tr.Close([]ThreadInfo{{TID: 1, Name: "t"}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
