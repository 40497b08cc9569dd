package task

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestJSONRoundTrip(t *testing.T) {
	s := MustNewSet(
		Uniform("tau1", 250*time.Millisecond, 250*time.Millisecond, time.Second, 8, time.Second),
		Uniform("pure", 5*time.Millisecond, 5*time.Millisecond, 0, 0, 50*time.Millisecond),
	)
	path := filepath.Join(t.TempDir(), "set.json")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("%d tasks", got.Len())
	}
	for i := range s.Tasks {
		a, b := s.Tasks[i], got.Tasks[i]
		if a.Name != b.Name || a.Mandatory != b.Mandatory || a.Windup != b.Windup ||
			a.Period != b.Period || a.NumOptional() != b.NumOptional() {
			t.Fatalf("task %d changed: %+v vs %+v", i, a, b)
		}
		for k := range a.Optional {
			if a.Optional[k] != b.Optional[k] {
				t.Fatalf("optional %d changed", k)
			}
		}
	}
}

func TestWriteJSONRejectsNonUniform(t *testing.T) {
	s := MustNewSet(Task{
		Name:      "mixed",
		Mandatory: time.Millisecond,
		Windup:    time.Millisecond,
		Optional:  []time.Duration{time.Second, 2 * time.Second},
		Period:    time.Second,
	})
	var b strings.Builder
	if err := s.WriteJSON(&b); err == nil {
		t.Fatal("non-uniform optional parts serialized")
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{"tasks":[{"name":"a","mandatory":"1ms","windup":"1ms"}]}`,                               // missing period
		`{"tasks":[{"name":"a","mandatory":"x","windup":"1ms","period":"1s"}]}`,                   // bad duration
		`{"tasks":[{"name":"a","mandatory":"1ms","windup":"1ms","period":"1s","numOptional":2}]}`, // np without o
		`{"tasks":[],"bogus":1}`, // unknown field
		`{"tasks":[]}`,           // empty set
		`{"tasks":[{"name":"a","mandatory":"1ms","windup":"1ms","period":"10ms"},{"name":"a","mandatory":"2ms","windup":"1ms","period":"20ms"}]}`, // repeated name
	}
	for _, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}
