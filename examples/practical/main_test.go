package main

import (
	"bytes"
	"os"
	"testing"
)

// The example's output matches testdata/output.golden byte for byte.
func TestExampleRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Fatalf("output diverged from testdata/output.golden.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
