package golden

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckRecordsThenMatches records a report's digest, then requires the
// same report to pass and a changed report or command line to fail.
func TestCheckRecordsThenMatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "testdata", "golden.sha256")
	if err := check(path, "a -x", []byte("alpha\n"), true); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// `printf 'alpha\n' | sha256sum` prints the same digest.
	if want := "b6a98d9ce9a2d9149288fa3df42d377c3e42737afdcdaf714e33c0a100b51060  a -x\n"; string(raw) != want {
		t.Fatalf("digest file %q, want %q", raw, want)
	}
	if err := check(path, "a -x", []byte("alpha\n"), false); err != nil {
		t.Errorf("recorded report: %v", err)
	}
	if err := check(path, "a -x", []byte("alpha!\n"), false); err == nil || !strings.Contains(err.Error(), "-update-golden") {
		t.Errorf("changed report: error %v, want a digest mismatch", err)
	}
	if err := check(path, "a -y", []byte("alpha\n"), false); err == nil {
		t.Error("changed command line accepted")
	}
	if err := check(filepath.Join(t.TempDir(), "missing"), "a -x", []byte("alpha\n"), false); err == nil {
		t.Error("missing digest file accepted")
	}
}

// TestCheckKeepsOneLinePerCommand checks that a digest file holds one line
// per command line: each check finds its own line, and an update rewrites
// only that line, in place, or appends a new one.
func TestCheckKeepsOneLinePerCommand(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.sha256")
	for _, c := range []struct{ cmd, report string }{{"a -x", "alpha\n"}, {"b", "beta\n"}} {
		if err := check(path, c.cmd, []byte(c.report), true); err != nil {
			t.Fatal(err)
		}
	}
	if err := check(path, "a -x", []byte("alpha\n"), false); err != nil {
		t.Errorf("first line: %v", err)
	}
	if err := check(path, "b", []byte("beta\n"), false); err != nil {
		t.Errorf("second line: %v", err)
	}
	if err := check(path, "a", []byte("alpha\n"), false); err == nil || !strings.Contains(err.Error(), "no digest") {
		t.Errorf("unrecorded command line: error %v, want a missing-digest error", err)
	}

	if err := check(path, "a -x", []byte("alpha!\n"), true); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// `printf 'alpha!\n' | sha256sum` and `printf 'beta\n' | sha256sum`.
	want := "46ccd0d5d5fa1077bfe1ab4d62397115300c2e46444e50e9db9f8b5f94660292  a -x\n" +
		"f2c82decdd7181cf98945929a62598db7e6b477e11f6e0eb0ae97020eff151ad  b\n"
	if string(raw) != want {
		t.Fatalf("digest file after updating the first line:\n%s\nwant\n%s", raw, want)
	}

	if err := os.WriteFile(path, []byte("not a digest line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := check(path, "a -x", []byte("alpha\n"), false); err == nil {
		t.Error("malformed digest file accepted")
	}
}
