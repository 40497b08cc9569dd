package task

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestLoadFileReadsTasks(t *testing.T) {
	want := []Task{
		Uniform("tau1", 250*time.Millisecond, 250*time.Millisecond, time.Second, 8, time.Second),
		Uniform("pure", 5*time.Millisecond, 5*time.Millisecond, 0, 0, 50*time.Millisecond),
	}
	path := filepath.Join(t.TempDir(), "set.json")
	if err := os.WriteFile(path, []byte(`{"tasks": [
  {"name": "tau1", "mandatory": "250ms", "windup": "250ms", "period": "1s", "optional": "1s", "numOptional": 8},
  {"name": "pure", "mandatory": "5ms", "windup": "5ms", "period": "50ms"}
]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Tasks, want) {
		t.Fatalf("read %+v, want %+v", got.Tasks, want)
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{"tasks":[{"name":"a","mandatory":"1ms","windup":"1ms"}]}`,                                                    // missing period
		`{"tasks":[{"name":"a","mandatory":"x","windup":"1ms","period":"1s"}]}`,                                        // bad duration
		`{"tasks":[{"name":"a","mandatory":"1ms","windup":"1ms","period":"1s","numOptional":2}]}`,                      // np without o
		`{"tasks":[{"name":"a","mandatory":"1ms","windup":"1ms","period":"1s","numOptional":-1}]}`,                     // negative np
		`{"tasks":[{"name":"a","mandatory":"1ms","windup":"1ms","period":"1s","optional":"1ms","numOptional":65536}]}`, // np above trace.MaxCPUs
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
