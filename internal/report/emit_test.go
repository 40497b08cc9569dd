package report

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEmitWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.md")
	if err := Emit(path, func(w io.Writer) error {
		_, err := fmt.Fprint(w, "# report\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "# report\n" {
		t.Fatalf("file holds %q, %v", got, err)
	}
}

// TestEmitReportsFullDevice: writes that fail only once the buffer is
// flushed must still fail the call, naming the output.
func TestEmitReportsFullDevice(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	err := Emit("/dev/full", func(w io.Writer) error {
		fmt.Fprint(w, "a report that never reaches the disk\n")
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "/dev/full") {
		t.Fatalf("Emit to /dev/full: %v, want an error naming /dev/full", err)
	}
}

func TestEmitKeepsWriteError(t *testing.T) {
	want := errors.New("sweep failed")
	path := filepath.Join(t.TempDir(), "out.md")
	if err := Emit(path, func(io.Writer) error { return want }); err != want {
		t.Fatalf("Emit = %v, want the write error %v", err, want)
	}
	if err := Emit(filepath.Join(t.TempDir(), "missing", "out.md"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("Emit into a missing directory succeeded")
	}
}
