package kernel

import (
	"container/heap"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/machine"
	"rtseed/internal/task"
)

// The frozen corpus pins the kernel's exact behaviour: for each entry, the
// SHA-256 of the trace file its program produces. It holds random-program
// seeds chosen for coverage (see selectByCoverage), the four seed inputs of
// the many-task fuzz target that compared the executors, and one
// hand-written mixed scenario. The digests were taken while a second,
// goroutine-per-thread executor still ran every entry — and every seed the
// selection scanned — with byte-identical traces; the corpus keeps checking
// what that differential checked.
//
// An intentional change to kernel semantics regenerates the corpus with
//
//	go test ./internal/kernel -run TestFrozenTraces -update-frozen
//
// in a commit that says why the traces changed.

var updateFrozen = flag.Bool("update-frozen", false, "regenerate testdata/frozen-traces.json")

const (
	frozenPath = "testdata/frozen-traces.json"
	// frozenSeeds is how many generator seeds (1..frozenSeeds) the coverage
	// selection scans.
	frozenSeeds = 5000
)

type frozenCorpus struct {
	// SeedsScanned and Trigrams record the selection: the program entries
	// reach every per-thread trace-kind trigram that seeds
	// 1..SeedsScanned reach.
	SeedsScanned int           `json:"seeds_scanned"`
	Trigrams     int           `json:"trigrams"`
	Entries      []frozenEntry `json:"entries"`
}

// frozenEntry is one corpus program and its trace digest. Kind is
// "program" (Seed drives the random-program generator), "manytask" (Seed,
// NRaw, UtilRaw and ReleaseOnly are one of those fuzz inputs), or
// "scenario" (the mixed scenario).
type frozenEntry struct {
	Kind        string `json:"kind"`
	Seed        uint64 `json:"seed,omitempty"`
	NRaw        uint8  `json:"n_raw,omitempty"`
	UtilRaw     uint8  `json:"util_raw,omitempty"`
	ReleaseOnly bool   `json:"release_only,omitempty"`
	SHA256      string `json:"sha256"`
}

func (e frozenEntry) String() string {
	switch e.Kind {
	case "program":
		return fmt.Sprintf("program seed %d", e.Seed)
	case "manytask":
		return fmt.Sprintf("manytask seed %#x n_raw %d util_raw %d release_only %v", e.Seed, e.NRaw, e.UtilRaw, e.ReleaseOnly)
	}
	return e.Kind
}

// trace runs the entry's program and returns its trace file.
func (e frozenEntry) trace(t testing.TB) []byte {
	switch e.Kind {
	case "program":
		return runProgram(t, e.Seed, &traceWatch{})
	case "manytask":
		return manyTaskTrace(t, e)
	case "scenario":
		return scenarioTrace(t)
	}
	t.Fatalf("unknown frozen entry kind %q", e.Kind)
	return nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestFrozenTraces replays every frozen entry and compares its trace digest.
func TestFrozenTraces(t *testing.T) {
	if *updateFrozen {
		writeFrozen(t)
	}
	raw, err := os.ReadFile(frozenPath)
	if err != nil {
		t.Fatal(err)
	}
	var corpus frozenCorpus
	if err := json.Unmarshal(raw, &corpus); err != nil {
		t.Fatal(err)
	}
	if len(corpus.Entries) == 0 {
		t.Fatal("empty frozen corpus")
	}
	for _, e := range corpus.Entries {
		if got := digest(e.trace(t)); got != e.SHA256 {
			t.Errorf("%v: trace digest %s, frozen %s", e, got, e.SHA256)
		}
	}
}

// writeFrozen regenerates the corpus: it runs seeds 1..frozenSeeds,
// selects program seeds by coverage, adds the fixed entries, and digests
// each entry's trace.
func writeFrozen(t *testing.T) {
	feats := make(map[uint64]map[trigram]bool, frozenSeeds)
	for seed := uint64(1); seed <= frozenSeeds; seed++ {
		w := &traceWatch{}
		runProgram(t, seed, w)
		feats[seed] = w.trigrams
	}
	chosen, covered := selectByCoverage(feats)
	corpus := frozenCorpus{SeedsScanned: frozenSeeds, Trigrams: covered}
	for _, seed := range chosen {
		corpus.Entries = append(corpus.Entries, frozenEntry{Kind: "program", Seed: seed})
	}
	corpus.Entries = append(corpus.Entries,
		frozenEntry{Kind: "manytask", Seed: 1, NRaw: 4, UtilRaw: 60},
		frozenEntry{Kind: "manytask", Seed: 0xbeef, NRaw: 17, UtilRaw: 15, ReleaseOnly: true},
		frozenEntry{Kind: "manytask", Seed: 42, NRaw: 32, UtilRaw: 3},
		frozenEntry{Kind: "manytask", Seed: 7, NRaw: 1, UtilRaw: 90, ReleaseOnly: true},
		frozenEntry{Kind: "scenario"},
	)
	for i := range corpus.Entries {
		corpus.Entries[i].SHA256 = digest(corpus.Entries[i].trace(t))
	}
	out, err := json.MarshalIndent(corpus, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(frozenPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("froze %d program seeds covering %d trigrams, plus %d fixed entries",
		len(chosen), covered, len(corpus.Entries)-len(chosen))
}

// selectByCoverage picks seeds greedily by how many not-yet-covered
// features each adds, in the manner of a fuzzer's seed scheduler: a
// max-priority queue of seeds keyed by new-feature count, re-keyed lazily —
// a popped seed whose count went stale is pushed back with its current
// count. Ties go to the lower seed. It returns the chosen seeds in pick
// order and the number of features they cover, which is every feature any
// seed reaches.
func selectByCoverage(feats map[uint64]map[trigram]bool) ([]uint64, int) {
	q := &seedQueue{}
	for seed, f := range feats {
		q.items = append(q.items, seedItem{seed: seed, gain: len(f)})
	}
	heap.Init(q)
	covered := map[trigram]bool{}
	var chosen []uint64
	for q.Len() > 0 {
		it := heap.Pop(q).(seedItem)
		gain := 0
		for f := range feats[it.seed] {
			if !covered[f] {
				gain++
			}
		}
		if gain == 0 {
			continue
		}
		if gain < it.gain {
			it.gain = gain
			heap.Push(q, it)
			continue
		}
		chosen = append(chosen, it.seed)
		for f := range feats[it.seed] {
			covered[f] = true
		}
	}
	return chosen, len(covered)
}

type seedItem struct {
	seed uint64
	gain int
}

// seedQueue is a heap of seeds, largest gain first, then lowest seed.
type seedQueue struct{ items []seedItem }

func (q *seedQueue) Len() int { return len(q.items) }
func (q *seedQueue) Less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	return a.seed < b.seed
}
func (q *seedQueue) Swap(i, j int) { q.items[i], q.items[j] = q.items[j], q.items[i] }
func (q *seedQueue) Push(x any)    { q.items = append(q.items, x.(seedItem)) }
func (q *seedQueue) Pop() any {
	it := q.items[len(q.items)-1]
	q.items = q.items[:len(q.items)-1]
	return it
}

// manyTaskTrace replays one many-task entry: the workload sched.NewManyTask
// builds — a UUniFast task set, RM-band priorities, task i pinned to
// hardware thread i mod 8, each job sleeping to its release and computing
// the mandatory then the wind-up part — on the default cost model, cut off
// after 20,000 engine events.
func manyTaskTrace(t testing.TB, e frozenEntry) []byte {
	t.Helper()
	n := int(e.NRaw)%32 + 1
	util := float64(e.UtilRaw%100+1) / 200
	set, err := task.Generate(task.GenConfig{
		N:                n,
		TotalUtilization: util * float64(n),
		MinPeriod:        time.Millisecond,
		MaxPeriod:        100 * time.Millisecond,
		Seed:             e.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	prios, err := task.RMBandPriorities(set, MinPriority, MaxPriority-1)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := machine.New(machine.Topology{Cores: 4, ThreadsPerCore: 2}, machine.NoLoad, machine.DefaultCostModel(), e.Seed)
	if err != nil {
		t.Fatal(err)
	}
	file, _, _ := tracedRun(t, mach, 20000, &traceWatch{}, func(k *Kernel) {
		nhw := k.Machine().Topology().NumHWThreads()
		var threads []*Thread
		for i, tk := range set.Tasks {
			cfg := ThreadConfig{Name: tk.Name, Priority: prios[i], CPU: machine.HWThread(i % nhw)}
			threads = append(threads, k.MustNewBodyThread(cfg, periodicBody(tk, e.ReleaseOnly)))
		}
		for _, th := range threads {
			th.Start()
		}
	})
	return file
}

// periodicBody is one many-task thread: sleep until the release, compute
// the mandatory and wind-up parts unless releaseOnly, repeat.
func periodicBody(tk task.Task, releaseOnly bool) Body {
	var release engine.Time
	pc := 0
	return StepFunc(func(c *TCB, r Resume) Next {
		switch pc {
		case 0:
			if r.First {
				release = c.Now()
			} else {
				release = release.Add(tk.Period)
			}
			if !releaseOnly {
				pc = 1
			}
			return SleepUntil(release)
		case 1:
			pc = 2
			return Compute(tk.Mandatory)
		default:
			pc = 0
			return Compute(tk.Windup)
		}
	})
}

// scenarioTrace runs the mixed scenario — sleeps, computes, an
// interruptible burst with a timer, condvar traffic, a mutex section, a
// yield and a migration — on a jitter-free machine.
func scenarioTrace(t testing.TB) []byte {
	t.Helper()
	model := machine.DefaultCostModel()
	model.JitterFrac = 0
	mach, err := machine.New(machine.Topology{Cores: 4, ThreadsPerCore: 2}, machine.NoLoad, model, 1)
	if err != nil {
		t.Fatal(err)
	}
	file, drained, _ := tracedRun(t, mach, programStepLimit, &traceWatch{}, func(k *Kernel) {
		cv := k.NewCondVar("cv")
		mu := k.NewMutex("mu")
		script(k, "w", 60, 1,
			act(CondWait(cv)),
			act(MutexLock(mu)),
			act(Compute(2*time.Millisecond)),
			act(MutexUnlock(mu))).Start()
		script(k, "m", 50, 0,
			act(SleepUntil(engine.At(time.Millisecond))),
			act(MutexLock(mu)),
			act(CondSignal(cv)),
			act(Compute(time.Millisecond)),
			act(MutexUnlock(mu)),
			func(c *TCB, r Resume) Next { return TimerSet(c.Now().Add(time.Millisecond)) },
			act(ComputeInterruptible(10*time.Millisecond)),
			act(SetAlarmMask(false)),
			act(Yield()),
			act(Migrate(2)),
			act(Compute(time.Millisecond))).Start()
	})
	if !drained {
		t.Fatal("scenario still running")
	}
	return file
}
