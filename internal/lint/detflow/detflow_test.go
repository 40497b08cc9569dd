package detflow_test

import (
	"testing"

	"rtseed/internal/lint/analysistest"
	"rtseed/internal/lint/detflow"
)

func TestDetflow(t *testing.T) {
	analysistest.Run(t, detflow.Analyzer, "../testdata/src/detflow")
}

// TestCallSites runs the call-site rule's fixture: host timers, global rand
// draws, wall-clock seeds and environment reads.
func TestCallSites(t *testing.T) {
	analysistest.Run(t, detflow.Analyzer, "../testdata/src/detcalls")
}
