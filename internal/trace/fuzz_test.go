package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"rtseed/internal/engine"
)

// FuzzTraceCodec: Decode must never panic on arbitrary input — truncated
// files, bad versions, corrupted sections all error cleanly — and anything
// it does accept must re-encode and decode to the same trace.
func FuzzTraceCodec(f *testing.F) {
	// Seed corpus: a flight-recorder file, a multi-section file-backed
	// file, their truncations, and targeted corruptions.
	threads := []ThreadInfo{{TID: 1, CPU: 0, Priority: 50, Name: "a.mand"}}
	emit := func(tr *Tracer) {
		for i := 0; i < 20; i++ {
			tr.Emit(engine.At(time.Duration(i)*time.Microsecond), uint16(i%2), uint32(1+i%3),
				Kind(1+i%int(kindMax-1)), uint64(i))
		}
	}
	ring := New(Config{CPUs: 2, Capacity: 8})
	emit(ring)
	var buf bytes.Buffer
	if err := ring.WriteTo(&buf, threads); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	var spilled bytes.Buffer
	file := New(Config{CPUs: 2, Capacity: 6, Sink: &spilled})
	emit(file)
	if err := file.Close(threads); err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:12])
	f.Add([]byte{})
	f.Add([]byte("RTSEEDTR"))
	badVersion := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint16(badVersion[8:], 0xffff)
	f.Add(badVersion)
	badKind := append([]byte(nil), valid...)
	badKind[12+9+30] = 200
	f.Add(badKind)
	hugeLen := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(hugeLen[13:], 1<<62)
	f.Add(hugeLen)
	f.Add(spilled.Bytes())
	f.Add(spilled.Bytes()[:12+sectionHeaderSize+6*recordSize]) // first section only

	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := Decode(data)
		if err != nil {
			return
		}
		// Analyze and the Perfetto exporter must hold up on anything the
		// reader accepts.
		a := Analyze(decoded)
		_ = a.NonEmpty()
		if err := WritePerfetto(&bytes.Buffer{}, decoded); err != nil {
			t.Fatalf("perfetto: %v", err)
		}
		// Accepted input must survive a rewrite through the file-backed
		// writer, spilling every few records into a new section. The lost
		// table need not cover every CPU a record names, so the rewrite is
		// sized from both; its u16 count caps it at 0xffff CPUs.
		cpus := len(decoded.Lost)
		for _, rec := range decoded.Records {
			cpus = max(cpus, int(rec.CPU)+1)
		}
		if cpus > 0xffff {
			return
		}
		var out bytes.Buffer
		rt := New(Config{CPUs: cpus, Capacity: 3, Sink: &out})
		for _, rec := range decoded.Records {
			rt.Emit(rec.At, rec.CPU, rec.TID, rec.Kind, rec.Arg)
		}
		if err := rt.Close(decoded.Threads); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := Decode(out.Bytes())
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(again.Records) != len(decoded.Records) {
			t.Fatalf("round trip changed record count %d -> %d", len(decoded.Records), len(again.Records))
		}
		// The rewrite renumbers Seq from 1 in the decoded order; every
		// other field, and the thread table, must survive unchanged.
		for i, rec := range again.Records {
			want := decoded.Records[i]
			want.Seq = uint64(i + 1)
			if rec != want {
				t.Fatalf("record %d: %+v after the round trip, want %+v", i, rec, want)
			}
		}
		if !reflect.DeepEqual(again.Threads, decoded.Threads) {
			t.Fatalf("round trip changed the thread table")
		}
	})
}
