package main

import (
	"strings"
	"testing"
	"time"
)

func TestRunPRMWPTraceGantt(t *testing.T) {
	if err := run("tau1:m=25ms,w=25ms,T=100ms,o=1s,np=2", "prmwp", "one", "none",
		300*time.Millisecond, 5*time.Millisecond, true, true); err != nil {
		t.Fatal(err)
	}
}

// TestRunPRMWPTraceNoFinishedJob runs the default task (T = 1s) with a
// horizon before its first job ends: -trace has no job to plot and must say
// so instead of indexing an empty record list.
func TestRunPRMWPTraceNoFinishedJob(t *testing.T) {
	err := run("tau1:m=250ms,w=250ms,T=1s,o=1s,np=8", "prmwp", "one", "none",
		100*time.Millisecond, 20*time.Millisecond, true, false)
	if err == nil {
		t.Fatal("-trace with no finished job accepted")
	}
	for _, want := range []string{"tau1", "100ms"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

func TestRunGeneral(t *testing.T) {
	if err := run("tau1:m=25ms,w=25ms,T=100ms", "general", "one", "cpu",
		300*time.Millisecond, 5*time.Millisecond, true, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadArgs(t *testing.T) {
	if err := run("x", "prmwp", "one", "none", time.Second, 0, false, false); err == nil {
		t.Fatal("bad spec accepted")
	}
	if err := run("a:m=1ms,w=1ms,T=10ms", "bogus", "one", "none", time.Second, 0, false, false); err == nil {
		t.Fatal("bad scheduler accepted")
	}
	if err := run("a:m=1ms,w=1ms,T=10ms", "prmwp", "bogus", "none", time.Second, 0, false, false); err == nil {
		t.Fatal("bad policy accepted")
	}
	if err := run("a:m=1ms,w=1ms,T=10ms", "prmwp", "one", "bogus", time.Second, 0, false, false); err == nil {
		t.Fatal("bad load accepted")
	}
}
