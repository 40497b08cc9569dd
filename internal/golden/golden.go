// Package golden pins command reports to committed SHA-256 digests, so a
// change that must leave a report's bytes alone is checked by `go test`
// rather than by diffing two runs by hand.
//
// Each command package keeps its digests in testdata/golden.sha256, in
// sha256sum's format: one line per report, each the hex digest, two spaces,
// and the command line that produces the report. Where the report is the
// command's whole stdout, `CMD | sha256sum` prints the same line.
//
// An intentional change to a report regenerates the digests with
//
//	go test ./cmd/rtseed-repro ./cmd/rtseed-overhead ./cmd/rtseed-cluster ./cmd/rtseed-trade ./cmd/rtseed-sim ./cmd/rtseed-analyze -run TestGolden -update-golden
//
// in a commit that says why the bytes changed.
package golden

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// file is the digest file, relative to the package directory a test runs in.
const file = "testdata/golden.sha256"

var update = flag.Bool("update-golden", false, "rewrite the report digests in "+file)

// Check compares the SHA-256 of report, produced by cmdline, with the line
// for cmdline in testdata/golden.sha256. With -update-golden it records the
// digest instead, rewriting that one line (or appending it) and leaving the
// file's other lines as they are.
func Check(t testing.TB, cmdline string, report []byte) {
	t.Helper()
	if err := check(file, cmdline, report, *update); err != nil {
		t.Error(err)
	}
}

// check is Check on an explicit digest file.
func check(path, cmdline string, report []byte, update bool) error {
	sum := sha256.Sum256(report)
	line := hex.EncodeToString(sum[:]) + "  " + cmdline
	raw, err := os.ReadFile(path)
	if err != nil && !(update && errors.Is(err, fs.ErrNotExist)) {
		return err
	}
	var lines []string
	if len(raw) > 0 {
		lines = strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	}
	at := -1
	for i, l := range lines {
		_, cmd, ok := strings.Cut(l, "  ")
		if !ok {
			return fmt.Errorf("%s line %d: %q is not a digest line", path, i+1, l)
		}
		if cmd == cmdline && at < 0 {
			at = i
		}
	}
	if update {
		if at < 0 {
			lines = append(lines, line)
		} else {
			lines[at] = line
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
	}
	if at < 0 {
		return fmt.Errorf("%s records no digest for %q, the report gives %q; record it with -update-golden",
			path, cmdline, line)
	}
	if lines[at] != line {
		return fmt.Errorf("%s records %q, the report gives %q; if the change is intended, rerun with -update-golden and say why in the commit",
			path, lines[at], line)
	}
	return nil
}
