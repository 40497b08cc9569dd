package workload

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"time"
)

// testTrace builds a small compiled trace for codec tests.
func testTrace(t *testing.T, builtin string, clients, ticks int) *Trace {
	t.Helper()
	spec, ok := BuiltinSpec(builtin)
	if !ok {
		t.Fatalf("builtin %q missing", builtin)
	}
	src, err := Compile(spec, CompileConfig{Clients: clients, Seed: 77, Horizon: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return src.Trace(ticks)
}

// TestRTKRoundTrip checks Write/Decode is the identity on every builtin
// spec's trace — including float bit patterns, which replay identity needs.
func TestRTKRoundTrip(t *testing.T) {
	for _, name := range BuiltinSpecNames() {
		tr := testTrace(t, name, 64, 200)
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		back, err := Decode(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(tr.Meta, back.Meta) {
			t.Errorf("%s: meta differs:\n%+v\n%+v", name, tr.Meta, back.Meta)
		}
		if !reflect.DeepEqual(tr.Clients, back.Clients) {
			t.Errorf("%s: clients differ", name)
		}
		if !reflect.DeepEqual(tr.Ticks, back.Ticks) {
			t.Errorf("%s: ticks differ", name)
		}
		// Re-encoding the decoded trace must be byte-identical.
		var buf2 bytes.Buffer
		if err := Write(&buf2, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Errorf("%s: re-encode not byte-identical", name)
		}
	}
}

// TestRTKFileRoundTrip checks the file-level helpers.
func TestRTKFileRoundTrip(t *testing.T) {
	tr := testTrace(t, "flash-crash", 32, 100)
	path := t.TempDir() + "/trace.rtk"
	if err := WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatal("file round trip changed the trace")
	}
}

// TestReplaySourceMatchesSpecSource checks the replay Source serves exactly
// the compiled population: same params, same materialized sets, same
// windows.
func TestReplaySourceMatchesSpecSource(t *testing.T) {
	spec, _ := BuiltinSpec("flash-crash")
	src, err := Compile(spec, CompileConfig{Clients: 40, Seed: 5, Horizon: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, src.Trace(0)); err != nil {
		t.Fatal(err)
	}
	tr, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplay(tr)
	if rep.Name() != src.Name() || rep.Len() != src.Len() {
		t.Fatalf("replay identity: %s/%d vs %s/%d", rep.Name(), rep.Len(), src.Name(), src.Len())
	}
	if !reflect.DeepEqual(rep.Windows(), src.Windows()) {
		t.Fatal("replay windows differ")
	}
	for id := 0; id < src.Len(); id++ {
		if rep.Params(id) != src.Params(id) {
			t.Fatalf("client %d params differ through the codec", id)
		}
		a, err := Materialize(src.Params(id))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Materialize(rep.Params(id))
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Set.Tasks {
			if !reflect.DeepEqual(a.Set.Tasks[i], b.Set.Tasks[i]) {
				t.Fatalf("client %d task %d differs through the codec", id, i)
			}
		}
	}
}

// corrupt returns a copy of data with one mutation applied.
func corrupt(data []byte, mut func([]byte)) []byte {
	c := append([]byte(nil), data...)
	mut(c)
	return c
}

// TestRTKDecodeRejects drives the decoder's validation paths: every
// corruption must produce an ErrBadFormat-wrapped error, never a panic or a
// silent success.
func TestRTKDecodeRejects(t *testing.T) {
	tr := testTrace(t, "open-close", 16, 50)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", good[:8]},
		{"bad magic", corrupt(good, func(b []byte) { b[0] = 'X' })},
		{"bad version", corrupt(good, func(b []byte) { b[8] = 99 })},
		{"reserved header", corrupt(good, func(b []byte) { b[10] = 1 })},
		{"unknown tag", corrupt(good, func(b []byte) { b[12] = 'Z' })},
		{"overrun length", corrupt(good, func(b []byte) {
			binary.LittleEndian.PutUint64(b[13:], uint64(len(b)))
		})},
		{"truncated section", good[:len(good)-7]},
		{"missing meta", good[:12]},
	}
	for _, c := range cases {
		if _, err := Decode(c.data); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: got %v, want ErrBadFormat", c.name, err)
		}
	}

	// Field-level corruption inside the meta section (horizon at offset
	// 12+9+2+namelen+8).
	nameLen := int(binary.LittleEndian.Uint16(good[21:]))
	horizonOff := 12 + 9 + 2 + nameLen + 8
	bad := corrupt(good, func(b []byte) {
		binary.LittleEndian.PutUint64(b[horizonOff:], 0)
	})
	if _, err := Decode(bad); !errors.Is(err, ErrBadFormat) {
		t.Errorf("zero horizon: got %v, want ErrBadFormat", err)
	}
}

// FuzzWorkloadCodec feeds arbitrary bytes to the decoder: it must never
// panic, and anything it accepts must re-encode decodably.
func FuzzWorkloadCodec(f *testing.F) {
	for _, name := range BuiltinSpecNames() {
		spec, _ := BuiltinSpec(name)
		src, err := Compile(spec, CompileConfig{Clients: 8, Seed: 2, Horizon: 100 * time.Millisecond})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, src.Trace(20)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("RTSEEDWK"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("decode error not wrapping ErrBadFormat: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
		if _, err := Decode(buf.Bytes()); err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
	})
}

// TestSynthTicksDeterministic checks the tick stream is a pure function of
// (spec, seed) and shapes itself to the rate profile.
func TestSynthTicksDeterministic(t *testing.T) {
	spec, _ := BuiltinSpec("flash-crash")
	mk := func(seed uint64) []Tick {
		src, err := Compile(spec, CompileConfig{Clients: 1, Seed: seed, Horizon: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return src.SynthTicks(2000)
	}
	a, b := mk(11), mk(11)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("tick synthesis not deterministic")
	}
	c := mk(12)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical tick streams")
	}
	var prev time.Duration
	dense := 0
	for _, tk := range a {
		if tk.At < prev || tk.At > time.Second {
			t.Fatalf("tick at %v out of order or range", tk.At)
		}
		if !(tk.Ask > tk.Bid) || !(tk.Bid > 0) {
			t.Fatalf("bad quote %+v", tk)
		}
		prev = tk.At
		if tk.At >= 400*time.Millisecond && tk.At < 550*time.Millisecond {
			dense++
		}
	}
	// The crash window holds 12x rate over 15% of the horizon: expect far
	// more than its 15% share of ticks.
	if frac := float64(dense) / float64(len(a)); frac < 0.4 {
		t.Errorf("crash window got %.2f of ticks, want dense (> 0.4)", frac)
	}
}
