package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
)

// digest hashes a canonical text form of a run's modelled outcome, so two
// builds of the simulator can be compared on one line.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(format string, args ...any) {
	fmt.Fprintf(d.h, format, args...)
	d.h.Write([]byte{'\n'})
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }
