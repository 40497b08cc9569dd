package analysis

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"rtseed/internal/task"
)

// rmwpModel drives an IncrementalRMWP alongside the task list it stands
// for, in RM order with ties in insertion order, and checks every step
// against RMWP run on that list: each insert's verdict and position, and
// after every step each cached response time.
type rmwpModel struct {
	t    testing.TB
	c    IncrementalRMWP
	list []task.Task
	seq  int
}

// insert offers tk to the processor and checks the outcome.
func (m *rmwpModel) insert(tk task.Task) (int, bool) {
	m.t.Helper()
	tk.Name = fmt.Sprintf("t%d", m.seq)
	m.seq++
	want := len(m.list)
	for i, x := range m.list {
		if x.Period > tk.Period {
			want = i
			break
		}
	}
	cand := slices.Insert(slices.Clone(m.list), want, tk)
	_, err := RMWP(task.MustNewSet(cand...))
	pos, ok := m.c.Insert(tk)
	if ok != (err == nil) {
		m.t.Fatalf("insert %v into %v: verdict %v, RMWP says %v", tk, m.list, ok, err)
	}
	if ok {
		if pos != want {
			m.t.Fatalf("insert %v into %v: position %d, want %d", tk, m.list, pos, want)
		}
		m.list = cand
	}
	m.check()
	return pos, ok
}

// remove takes the task at RM position i out and checks the outcome.
func (m *rmwpModel) remove(i int) {
	m.t.Helper()
	m.c.Remove(i)
	m.list = slices.Delete(m.list, i, i+1)
	m.check()
}

// client inserts tasks as one client: all of them, or, when one fails,
// none, rolling the placed ones back in reverse order as admission does.
func (m *rmwpModel) client(tasks ...task.Task) bool {
	m.t.Helper()
	var placed []int
	for _, tk := range tasks {
		pos, ok := m.insert(tk)
		if !ok {
			for k := len(placed) - 1; k >= 0; k-- {
				m.remove(placed[k])
			}
			return false
		}
		placed = append(placed, pos)
	}
	return true
}

// check compares the cached response times with a cold RMWP run.
func (m *rmwpModel) check() {
	m.t.Helper()
	if m.c.Len() != len(m.list) {
		m.t.Fatalf("%d tasks cached, %d in the list", m.c.Len(), len(m.list))
	}
	if len(m.list) == 0 {
		return
	}
	results, err := RMWP(task.MustNewSet(m.list...))
	if err != nil {
		m.t.Fatalf("admitted list %v fails RMWP: %v", m.list, err)
	}
	for i, res := range results {
		rw, rm := m.c.Response(i)
		if rw != res.WindupResponse || rm != res.MandatoryResponse {
			m.t.Fatalf("list %v task %d: cached R^w %v R^m %v, cold %v %v",
				m.list, i, rw, rm, res.WindupResponse, res.MandatoryResponse)
		}
	}
}

// TestIncrementalRMWPAgreesWithRMWP cross-checks the incremental test
// against the full analysis on random sets: inserting a set's tasks one by
// one succeeds every time exactly when RMWP accepts the set.
func TestIncrementalRMWPAgreesWithRMWP(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		n := 1 + int(seed%5)
		u := 0.3 + 0.9*float64(seed%10)/10 // spans schedulable and not
		if u > float64(n) {
			u = 0.95 * float64(n)
		}
		set, err := task.Generate(task.GenConfig{
			N:                n,
			TotalUtilization: u,
			MinPeriod:        2 * time.Millisecond,
			MaxPeriod:        200 * time.Millisecond,
			Seed:             seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, rmwpErr := RMWP(set)
		m := &rmwpModel{t: t}
		all := true
		for _, tk := range set.Tasks {
			if _, ok := m.insert(tk); !ok {
				all = false
			}
		}
		if all != (rmwpErr == nil) {
			t.Fatalf("seed %d: every insert succeeded = %v, RMWP err = %v", seed, all, rmwpErr)
		}
	}
}

// TestIncrementalRMWPInsertPositions inserts one task at every RM position
// of a schedulable list, ties included, and removes it again: the verdict
// and the cached response times of the tasks below must match a full
// analysis both times.
func TestIncrementalRMWPInsertPositions(t *testing.T) {
	base, err := task.Generate(task.GenConfig{
		N: 4, TotalUtilization: 0.5,
		MinPeriod: 5 * time.Millisecond, MaxPeriod: 100 * time.Millisecond,
		Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	ordered := base.SortedByRM()
	periods := []time.Duration{ordered[0].Period / 2, ordered[len(ordered)-1].Period * 2}
	for i, tk := range ordered {
		periods = append(periods, tk.Period) // a tie: goes after tk
		if i > 0 {
			periods = append(periods, (ordered[i-1].Period+tk.Period)/2)
		}
	}
	for _, p := range periods {
		for _, part := range []time.Duration{time.Millisecond, p / 3} {
			m := &rmwpModel{t: t}
			for _, tk := range ordered {
				if _, ok := m.insert(tk); !ok {
					t.Fatal("base set should be schedulable at U=0.5")
				}
			}
			if pos, ok := m.insert(task.Uniform("x", part, part, 0, 0, p)); ok {
				m.remove(pos)
			}
		}
	}
}

// TestIncrementalRMWPEdgeCases scripts the cases a random draw may miss:
// zero-length parts, equal periods, and the rollback of a multi-task client
// whose last task fails.
func TestIncrementalRMWPEdgeCases(t *testing.T) {
	ms := time.Millisecond
	m := &rmwpModel{t: t}
	// Zero-length wind-up and mandatory parts have a zero response time.
	if _, ok := m.insert(task.Task{Mandatory: 3 * ms, Period: 10 * ms}); !ok {
		t.Fatal("wind-up-free task rejected on an empty processor")
	}
	if pos, ok := m.insert(task.Task{Windup: 2 * ms, Period: 20 * ms}); !ok || pos != 1 {
		t.Fatalf("mandatory-free task: position %d, ok %v", pos, ok)
	}
	if rw, rm := m.c.Response(0); rw != 0 || rm != 3*ms {
		t.Errorf("wind-up-free task: R^w %v R^m %v, want 0 and 3ms", rw, rm)
	}
	if rw, rm := m.c.Response(1); rw != 5*ms || rm != 0 {
		t.Errorf("mandatory-free task: R^w %v R^m %v, want 5ms and 0", rw, rm)
	}
	// Equal periods: a new task goes after the tasks it ties with.
	if pos, ok := m.insert(task.Uniform("", ms, ms, 0, 0, 10*ms)); !ok || pos != 1 {
		t.Fatalf("tie at 10ms: position %d, ok %v; want 1 (after the earlier tie)", pos, ok)
	}
	// A client whose first task fits above the 20ms task, and whose second
	// fits too but pushes that task past its deadline, is rolled back.
	if m.client(task.Task{Mandatory: ms, Period: 15 * ms}, task.Uniform("", 2*ms, 2*ms, 0, 0, 16*ms)) {
		t.Fatal("overloading client admitted")
	}
	if m.c.Len() != 3 {
		t.Fatalf("rollback left %d tasks, want 3", m.c.Len())
	}
	for m.c.Len() > 0 {
		m.remove(0)
	}
}

// runRMWPOps decodes data into a sequence of client inserts and removals
// and runs it through an rmwpModel. The first byte picks a time unit from
// 1ns to 2^40ns; then each op byte is a client of one to three tasks (three
// bytes each: period, mandatory and wind-up lengths in units) or the
// removal of the task at the position its next byte picks.
func runRMWPOps(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	unit := time.Duration(1) << (data[0] % 41)
	data = data[1:]
	next := func() byte {
		b := data[0]
		data = data[1:]
		return b
	}
	m := &rmwpModel{t: t}
	for len(data) > 0 {
		op := next()
		if op%4 == 3 {
			if len(data) > 0 && m.c.Len() > 0 {
				m.remove(int(next()) % m.c.Len())
			}
			continue
		}
		n := 1 + int(op%4)
		if len(data) < 3*n || m.c.Len() >= 16 {
			return
		}
		tasks := make([]task.Task, n)
		for k := range tasks {
			p := 1 + int64(next()%48)
			mand := int64(next()) % (p + 1)
			wind := int64(next()) % (p - mand + 1)
			if mand+wind == 0 {
				wind = 1
			}
			tasks[k] = task.Task{
				Mandatory: time.Duration(mand) * unit,
				Windup:    time.Duration(wind) * unit,
				Period:    time.Duration(p) * unit,
			}
		}
		m.client(tasks...)
	}
}

// TestIncrementalRMWPRandomSequences runs random insert, rollback and
// removal sequences against RMWP.
func TestIncrementalRMWPRandomSequences(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 17))
	for i := 0; i < 300; i++ {
		data := make([]byte, 1+rng.IntN(200))
		for k := range data {
			data[k] = byte(rng.Uint32())
		}
		runRMWPOps(t, data)
	}
}

// FuzzIncrementalRMWP fuzzes the op sequences of
// TestIncrementalRMWPRandomSequences.
func FuzzIncrementalRMWP(f *testing.F) {
	f.Add([]byte{0, 0, 10, 3, 0, 1, 20, 0, 2, 0, 10, 1, 1})
	f.Add([]byte{20, 1, 5, 1, 1, 12, 2, 2, 3, 0})
	f.Add([]byte{3, 2, 47, 0, 9, 47, 9, 0, 47, 30, 17, 3, 1, 3, 0})
	f.Fuzz(runRMWPOps)
}

// TestCeilDivInv checks the divide-free ⌈r/t⌉ against integer division at
// exact multiples, at r = 1, below t, and at large r, for small and large t.
func TestCeilDivInv(t *testing.T) {
	check := func(r, d int64) {
		t.Helper()
		want := r / d
		if r%d != 0 {
			want++
		}
		if r <= math.MaxInt64-d+1 && ceilDiv(r, d) != want {
			t.Fatalf("reference ceilDiv(%d, %d) = %d, want %d", r, d, ceilDiv(r, d), want)
		}
		if got := ceilDivInv(r, d, 1/float64(d)); got != want {
			t.Errorf("ceilDivInv(%d, %d) = %d, want %d", r, d, got, want)
		}
	}
	periods := []int64{1, 2, 3, 7, 10, 1000, 999_983, 5_000_000, 1<<31 - 1, 1 << 40,
		1<<53 - 1, 1<<53 + 1, math.MaxInt64 / 3, math.MaxInt64 - 1, math.MaxInt64}
	for _, d := range periods {
		top := math.MaxInt64 / d * d // the largest multiple of d
		for _, r := range []int64{0, 1, d / 2, d - 1, d, 2 * d, 3*d - 1, 3*d + 1,
			1 << 53, 1<<53 + 1, 1 << 62, top, top - 1, math.MaxInt64 - 1, math.MaxInt64} {
			if r >= 0 {
				check(r, d)
			}
		}
		for k := int64(1); k <= 1000 && k <= math.MaxInt64/d; k++ {
			check(k*d, d)
			check(k*d-1, d)
		}
	}
	rng := rand.New(rand.NewPCG(3, 9))
	for i := 0; i < 200_000; i++ {
		d := 1 + rng.Int64N(int64(1)<<rng.IntN(63))
		check(rng.Int64N(int64(1)<<rng.IntN(63)), d)
	}
}
