package task

import (
	"testing"
	"time"
)

func TestParseSpecPaperTask(t *testing.T) {
	s, err := ParseSpec("tau1:m=250ms,w=250ms,T=1s,o=1s,np=8")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("%d tasks, want 1", s.Len())
	}
	tk := s.Tasks[0]
	if tk.Name != "tau1" || tk.Mandatory != 250*time.Millisecond ||
		tk.Windup != 250*time.Millisecond || tk.Period != time.Second {
		t.Fatalf("parsed %+v", tk)
	}
	if tk.NumOptional() != 8 || tk.Optional[0] != time.Second {
		t.Fatalf("optional parts %v", tk.Optional)
	}
}

func TestParseSpecMultiTask(t *testing.T) {
	s, err := ParseSpec(" a:m=10ms,w=5ms,T=100ms ; b:m=1ms,w=1ms,T=10ms ")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.Tasks[0].Name != "a" || s.Tasks[1].Name != "b" {
		t.Fatalf("parsed %+v", s.Tasks)
	}
	if s.Tasks[0].NumOptional() != 0 {
		t.Fatal("np should default to 0")
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []string{
		"",                                    // empty
		"noname",                              // no colon
		":m=1ms,w=1ms,T=10ms",                 // empty name
		"a:m=1ms",                             // missing period
		"a:m=1ms,w=1ms,T=10ms,np=2",           // np without o
		"a:m=1ms,w=1ms,T=10ms,np=-1",          // negative np
		"a:m=1ms,w=1ms,T=10ms,o=1ms,np=65536", // np above trace.MaxCPUs
		"a:m=bogus,w=1ms,T=10ms",              // bad duration
		"a:m=1ms,w=1ms,T=10ms,x=1",            // unknown field
		"a:m=1ms w=1ms",                       // not key=value
		"a:m=20ms,w=20ms,T=10ms",              // WCET > period
		"a:np=banana,m=1ms,w=1ms,T=10ms",
		"a:m=1ms,w=1ms,T=10ms;a:m=2ms,w=1ms,T=20ms", // repeated name
	}
	for _, spec := range cases {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	// The bound itself is accepted.
	if s, err := ParseSpec("a:m=1ms,w=1ms,T=10ms,o=1ms,np=65535"); err != nil || s.Tasks[0].NumOptional() != 65535 {
		t.Errorf("np=65535 rejected: %v", err)
	}
}
