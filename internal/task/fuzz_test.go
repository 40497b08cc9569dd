package task

import (
	"strings"
	"testing"

	"rtseed/internal/trace"
)

// FuzzParseSpec: the spec parser must never panic, and every accepted spec
// must produce a structurally valid task set of non-empty, unique names and
// np within [0, trace.MaxCPUs].
func FuzzParseSpec(f *testing.F) {
	f.Add("tau1:m=250ms,w=250ms,T=1s,o=1s,np=8")
	f.Add("a:m=1ms,w=1ms,T=10ms; b:m=2ms,w=2ms,T=20ms")
	f.Add("x:m=1ns,w=1ns,T=2ns")
	f.Add(";;;")
	f.Add("a:m=,w=,T=")
	f.Add("a:np=3,o=1s,m=1ms,w=1ms,T=1s")
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSpec(spec)
		if err != nil {
			return
		}
		checkDecoded(t, s, spec)
		for _, tk := range s.Tasks {
			if strings.TrimSpace(tk.Name) == "" {
				t.Fatalf("accepted empty name from %q", spec)
			}
		}
	})
}

// FuzzReadJSON: the task-set file decoder must never panic, and every file
// it accepts must produce a structurally valid task set, its task names
// unique and every np within [0, trace.MaxCPUs].
func FuzzReadJSON(f *testing.F) {
	f.Add(`{"tasks":[{"name":"tau1","mandatory":"250ms","windup":"250ms","period":"1s","optional":"1s","numOptional":8}]}`)
	f.Add(`{"tasks":[{"name":"a","mandatory":"1ms","windup":"1ms","period":"10ms"},{"name":"b","mandatory":"2ms","windup":"2ms","period":"20ms"}]}`)
	f.Add(`{"tasks":[{"name":"a","mandatory":"1ms","windup":"1ms","period":"1s","numOptional":-1}]}`)
	f.Add(`{"tasks":[{"name":"a","mandatory":"1ms","windup":"1ms","period":"1s","optional":"1ms","numOptional":65536}]}`)
	f.Add(`{"tasks":[]}`)
	f.Fuzz(func(t *testing.T, data string) {
		s, err := ReadJSON(strings.NewReader(data))
		if err != nil {
			return
		}
		checkDecoded(t, s, data)
	})
}

// checkDecoded fails t unless s, decoded from input, is a non-empty set of
// valid tasks with unique names, each np within [0, trace.MaxCPUs], and a
// positive utilization.
func checkDecoded(t *testing.T, s *Set, input string) {
	t.Helper()
	if s.Len() == 0 {
		t.Fatalf("accepted %q with no tasks", input)
	}
	names := make(map[string]bool, s.Len())
	for _, tk := range s.Tasks {
		if err := tk.Validate(); err != nil {
			t.Fatalf("accepted invalid task from %q: %v", input, err)
		}
		if np := tk.NumOptional(); np > trace.MaxCPUs {
			t.Fatalf("accepted np=%d from %q", np, input)
		}
		if names[tk.Name] {
			t.Fatalf("accepted name %q twice from %q", tk.Name, input)
		}
		names[tk.Name] = true
	}
	if s.Utilization() <= 0 {
		t.Fatalf("accepted zero-utilization set from %q", input)
	}
}
