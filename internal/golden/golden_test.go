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
