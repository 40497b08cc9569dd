package task

import (
	"strings"
	"testing"
)

// FuzzParseSpec: the spec parser must never panic, and every accepted spec
// must produce a structurally valid task set, its task names unique, that
// round-trips its counts.
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
		if s.Len() == 0 {
			t.Fatalf("accepted spec %q with no tasks", spec)
		}
		names := make(map[string]bool, s.Len())
		for _, tk := range s.Tasks {
			if err := tk.Validate(); err != nil {
				t.Fatalf("accepted invalid task from %q: %v", spec, err)
			}
			if strings.TrimSpace(tk.Name) == "" {
				t.Fatalf("accepted empty name from %q", spec)
			}
			if names[tk.Name] {
				t.Fatalf("accepted name %q twice from %q", tk.Name, spec)
			}
			names[tk.Name] = true
		}
		if s.Utilization() <= 0 {
			t.Fatalf("accepted zero-utilization set from %q", spec)
		}
	})
}
