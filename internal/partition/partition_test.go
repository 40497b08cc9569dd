package partition

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"rtseed/internal/analysis"
	"rtseed/internal/task"
)

func ms(d int) time.Duration { return time.Duration(d) * time.Millisecond }

func set(us ...float64) *task.Set {
	tasks := make([]task.Task, len(us))
	for i, u := range us {
		c := time.Duration(u * float64(100*time.Millisecond))
		tasks[i] = task.Uniform("t"+string(rune('a'+i)), c/2, c-c/2, 0, 0, ms(100))
	}
	return task.MustNewSet(tasks...)
}

func TestFirstFitPacksLow(t *testing.T) {
	a, err := Partition(set(0.3, 0.3, 0.3), 4, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	// Three tasks of U=0.3 fit... first-fit packs the first processor as
	// long as admission passes. RMWP on a uniprocessor admits these
	// (utilization 0.9 > LL bound, so exact RTA decides).
	if a.UsedProcessors() > 2 {
		t.Fatalf("first-fit used %d processors, expected tight packing", a.UsedProcessors())
	}
	total := 0
	for _, ts := range a.PerProcessor {
		total += len(ts)
	}
	if total != 3 {
		t.Fatalf("assigned %d tasks, want 3", total)
	}
}

func TestWorstFitBalances(t *testing.T) {
	a, err := Partition(set(0.3, 0.3, 0.3, 0.3), 4, WorstFit)
	if err != nil {
		t.Fatal(err)
	}
	if a.UsedProcessors() != 4 {
		t.Fatalf("worst-fit used %d processors, want 4 (one task each)", a.UsedProcessors())
	}
}

func TestEachProcessorRMWPSchedulable(t *testing.T) {
	s := set(0.6, 0.5, 0.4, 0.3, 0.2, 0.2)
	a, err := Partition(s, 4, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	for p, ts := range a.PerProcessor {
		if len(ts) == 0 {
			continue
		}
		sub := task.MustNewSet(ts...)
		if _, err := analysis.RMWP(sub); err != nil {
			t.Fatalf("processor %d assignment not RMWP-schedulable: %v", p, err)
		}
	}
}

func TestNoFit(t *testing.T) {
	// Two tasks that each need a whole processor, one processor.
	_, err := Partition(set(0.9, 0.9), 1, FirstFit)
	if err == nil {
		t.Fatal("impossible partition accepted")
	}
	if !errors.Is(err, ErrNoFit) {
		t.Fatalf("error %v should wrap ErrNoFit", err)
	}
}

func TestArgumentValidation(t *testing.T) {
	if _, err := Partition(nil, 2, FirstFit); err == nil {
		t.Fatal("nil set accepted")
	}
	if _, err := Partition(set(0.1), 0, FirstFit); err == nil {
		t.Fatal("zero processors accepted")
	}
	if _, err := Partition(set(0.1), 1, Heuristic(0)); err == nil {
		t.Fatal("unknown heuristic accepted")
	}
}

func TestHeuristicStrings(t *testing.T) {
	for _, h := range []Heuristic{FirstFit, WorstFit} {
		if h.String() == "unknown-heuristic" {
			t.Fatalf("heuristic %d missing label", h)
		}
	}
}

// Property: every successful partition assigns every task exactly once, to a
// valid processor, and every processor passes RMWP admission.
func TestPropertyPartitionSound(t *testing.T) {
	f := func(seed []uint8, hIdx uint8, mRaw uint8) bool {
		if len(seed) == 0 {
			return true
		}
		if len(seed) > 12 {
			seed = seed[:12]
		}
		m := int(mRaw%8) + 1
		h := []Heuristic{FirstFit, WorstFit}[int(hIdx)%2]
		tasks := make([]task.Task, len(seed))
		for i, b := range seed {
			c := time.Duration(b%40+10) * time.Millisecond // U in [0.1, 0.5]
			tasks[i] = task.Task{
				Name:      "t" + string(rune('A'+i)),
				Mandatory: c / 2,
				Windup:    c - c/2,
				Period:    ms(100),
			}
		}
		s := task.MustNewSet(tasks...)
		a, err := Partition(s, m, h)
		if err != nil {
			return true // infeasible inputs are out of scope
		}
		if len(a.Processor) != len(tasks) {
			return false
		}
		count := 0
		for p, ts := range a.PerProcessor {
			count += len(ts)
			if len(ts) == 0 {
				continue
			}
			if _, err := analysis.RMWP(task.MustNewSet(ts...)); err != nil {
				return false
			}
			for _, tk := range ts {
				if a.Processor[tk.Name] != p {
					return false
				}
			}
		}
		return count == len(tasks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// modelPartition is the placement rule Partition keeps: tasks in
// decreasing-utilization order, and processor p admits t when analysis.RMWP
// passes on p's tasks plus t, in assignment order. FirstFit takes the first
// admitting processor; WorstFit the least-utilized one, ties to the lower
// index.
func modelPartition(s *task.Set, m int, h Heuristic) (*Assignment, error) {
	ordered := slices.Clone(s.Tasks)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].Utilization() > ordered[j].Utilization()
	})
	a := &Assignment{PerProcessor: make([][]task.Task, m), Processor: make(map[string]int)}
	for _, t := range ordered {
		best := -1
		for p := 0; p < m; p++ {
			cand := append(slices.Clone(a.PerProcessor[p]), t)
			if _, err := analysis.RMWP(task.MustNewSet(cand...)); err != nil {
				continue
			}
			if h == FirstFit {
				best = p
				break
			}
			if best < 0 || a.Utilization(p) < a.Utilization(best) {
				best = p
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("task %s (U=%.3f): %w", t.Name, t.Utilization(), ErrNoFit)
		}
		a.PerProcessor[best] = append(a.PerProcessor[best], t)
		a.Processor[t.Name] = best
	}
	return a, nil
}

// periods are the periods runPartition draws from: mixed, several of them
// harmonic, and few enough that most sets tie some.
var periods = []time.Duration{ms(10), ms(12), ms(15), ms(20), ms(30), ms(40)}

// runPartition decodes data into a partition problem and checks Partition
// against modelPartition: the whole Assignment, or the error text. The first
// byte picks the processor count (1-6) and the heuristic; each further three
// bytes are a task: its period, and its mandatory and wind-up lengths, each
// 0 to half the period in 100 µs steps (a zero-length pair becomes one
// step of wind-up). It returns whether the set was feasible.
func runPartition(t *testing.T, data []byte) bool {
	if len(data) == 0 {
		return false
	}
	m := 1 + int(data[0]%6)
	h := []Heuristic{FirstFit, WorstFit}[data[0]/6%2]
	const step = 100 * time.Microsecond
	var tasks []task.Task
	for k := 1; k+3 <= len(data) && len(tasks) < 16; k += 3 {
		p := periods[int(data[k])%len(periods)]
		half := int(p / step / 2)
		mand := time.Duration(int(data[k+1])%(half+1)) * step
		wind := time.Duration(int(data[k+2])%(half+1)) * step
		if mand+wind == 0 {
			wind = step
		}
		tasks = append(tasks, task.Task{
			Name: fmt.Sprintf("t%d", len(tasks)), Mandatory: mand, Windup: wind, Period: p,
		})
	}
	if len(tasks) == 0 {
		return false
	}
	s := task.MustNewSet(tasks...)
	got, gotErr := Partition(s, m, h)
	want, wantErr := modelPartition(s, m, h)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%v on %d processors, %v: error %v, want %v", tasks, m, h, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%v on %d processors, %v:\n got %v\nwant %v", tasks, m, h, got, want)
	}
	return wantErr == nil
}

// TestPartitionMatchesModel checks Partition against modelPartition on
// random sets with mixed and tied periods and zero-length parts, on 1-6
// processors under both heuristics.
func TestPartitionMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 7))
	const cases = 10000
	feasible := 0
	for i := 0; i < cases; i++ {
		data := make([]byte, 1+3*(1+rng.IntN(12)))
		for k := range data {
			data[k] = byte(rng.Uint32())
		}
		if runPartition(t, data) {
			feasible++
		}
	}
	t.Logf("%d of %d sets feasible", feasible, cases)
	if feasible < cases/4 || feasible > cases*3/4 {
		t.Fatalf("%d of %d sets feasible: the draw no longer covers both outcomes", feasible, cases)
	}
}

// FuzzPartition fuzzes the problems of TestPartitionMatchesModel.
func FuzzPartition(f *testing.F) {
	f.Add([]byte{3, 0, 20, 10, 1, 30, 20, 0, 10, 10, 2, 20, 20})
	f.Add([]byte{10, 0, 0, 40, 0, 40, 0, 0, 40, 0, 40, 0})
	f.Add([]byte{1, 5, 0, 200, 2, 60, 0, 3, 255, 255, 4, 7, 9})
	f.Fuzz(func(t *testing.T, data []byte) { runPartition(t, data) })
}
