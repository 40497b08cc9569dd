package waiverdrift_test

import (
	"testing"

	"rtseed/internal/lint/analysistest"
	"rtseed/internal/lint/suite"
	"rtseed/internal/lint/waiverdrift"
)

// TestWaiverDrift runs the rest of the suite over the fixture first, in one
// session, the way the driver does: waiverdrift audits the record they leave.
func TestWaiverDrift(t *testing.T) {
	last := len(suite.Analyzers) - 1
	if suite.Analyzers[last] != waiverdrift.Analyzer {
		t.Fatal("waiverdrift must be the last analyzer of suite.Analyzers")
	}
	analysistest.Run(t, waiverdrift.Analyzer, "../testdata/src/waiverdrift", suite.Analyzers[:last]...)
}
