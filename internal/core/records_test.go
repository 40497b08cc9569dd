package core

import (
	"reflect"
	"testing"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/machine"
	"rtseed/internal/task"
)

// TestJobAccountingAllocs bounds what job accounting allocates: n jobs
// must allocate fewer than n/10 objects, because their part records come
// from shared slabs. The measured run crosses a slab boundary. Allocating
// each job's parts separately costs at least n.
func TestJobAccountingAllocs(t *testing.T) {
	const np, n = 16, 500
	k := newSim(t, machine.NoLoad)
	// AllocsPerRun calls its function once to warm up, then once measured.
	p := newProcess(t, k, paperTask(np, time.Second), 2*n, nil, Probes{}, App{})
	p.Start()
	eng, until := k.Engine(), engine.At(0)
	allocs := testing.AllocsPerRun(1, func() {
		until = until.Add(n * p.cfg.Task.Period)
		eng.RunUntil(until)
	})
	if got := len(p.Records()); got != 2*n {
		t.Fatalf("%d jobs recorded, want %d", got, 2*n)
	}
	if allocs >= n/10 {
		t.Fatalf("%d jobs allocated %v times, want fewer than %d", n, allocs, n/10)
	}
}

// TestRecordsPartsCapped appends to one job's Parts, as a Records caller
// may: the next job's parts, carved from the same slab, must not change.
func TestRecordsPartsCapped(t *testing.T) {
	k := newSim(t, machine.NoLoad)
	p := newProcess(t, k, paperTask(4, time.Second), 3, nil, Probes{}, App{})
	p.Start()
	k.Run()
	recs := p.Records()
	want := append([]task.PartRecord(nil), recs[1].Parts...)
	for i := range 4 {
		recs[0].Parts = append(recs[0].Parts, task.PartRecord{Outcome: task.PartCompleted, Executed: time.Duration(i)})
	}
	if got := p.Records()[1].Parts; !reflect.DeepEqual(got, want) {
		t.Fatalf("appending to job 0's parts changed job 1's:\n got %+v\nwant %+v", got, want)
	}
}

// TestNoOptionalPartsEmptyParts: a task without optional parts still
// records a non-nil, empty Parts for every job.
func TestNoOptionalPartsEmptyParts(t *testing.T) {
	k := newSim(t, machine.NoLoad)
	p := newProcess(t, k, paperTask(0, time.Second), 3, nil, Probes{}, App{})
	p.Start()
	k.Run()
	recs := p.Records()
	if len(recs) != 3 {
		t.Fatalf("%d jobs recorded, want 3", len(recs))
	}
	for _, r := range recs {
		if r.Parts == nil || len(r.Parts) != 0 {
			t.Errorf("job %d: Parts = %#v, want a non-nil empty slice", r.Job, r.Parts)
		}
	}
}
