// Package golden pins command reports to committed SHA-256 digests, so a
// change that must leave a report's bytes alone is checked by `go test`
// rather than by diffing two runs by hand.
//
// Each command package keeps its digest in testdata/golden.sha256, in
// sha256sum's format: the hex digest, two spaces, and the command line that
// produces the report. Where the report is the command's whole stdout,
// `CMD | sha256sum` prints the same digest.
//
// An intentional change to a report regenerates the digests with
//
//	go test ./cmd/rtseed-repro ./cmd/rtseed-overhead ./cmd/rtseed-cluster ./cmd/rtseed-trade ./cmd/rtseed-sim -run TestGolden -update-golden
//
// in a commit that says why the bytes changed.
package golden

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// file is the digest file, relative to the package directory a test runs in.
const file = "testdata/golden.sha256"

var update = flag.Bool("update-golden", false, "rewrite the report digest in "+file)

// Check compares the SHA-256 of report, produced by cmdline, with the digest
// in testdata/golden.sha256. With -update-golden it records it instead.
func Check(t testing.TB, cmdline string, report []byte) {
	t.Helper()
	if err := check(file, cmdline, report, *update); err != nil {
		t.Error(err)
	}
}

// check is Check on an explicit digest file.
func check(path, cmdline string, report []byte, update bool) error {
	sum := sha256.Sum256(report)
	line := hex.EncodeToString(sum[:]) + "  " + cmdline + "\n"
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, []byte(line), 0o644)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if string(want) != line {
		return fmt.Errorf("%s records %q, the report gives %q; if the change is intended, rerun with -update-golden and say why in the commit",
			path, want, line)
	}
	return nil
}
