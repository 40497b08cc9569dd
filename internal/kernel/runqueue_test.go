package kernel

import (
	"math/rand"
	"testing"
)

// rqThread builds a bare thread suitable for run-queue tests: only the
// priority matters to the queue; the intrusive links start detached.
func rqThread(prio int) *Thread {
	return &Thread{prio: prio}
}

func TestRunQueueEmpty(t *testing.T) {
	q := &runQueue{}
	if got := q.pop(); got != nil {
		t.Fatalf("pop on empty queue returned %v", got)
	}
	if got := q.topPriority(); got != -1 {
		t.Fatalf("topPriority on empty queue = %d, want -1", got)
	}
	if q.len() != 0 {
		t.Fatalf("len on empty queue = %d", q.len())
	}
}

func TestRunQueueStrictPriorityAcrossLevels(t *testing.T) {
	q := &runQueue{}
	prios := []int{7, 99, 1, 64, 63, 65, 42, 2}
	for _, p := range prios {
		q.enqueue(rqThread(p), false)
	}
	want := []int{99, 65, 64, 63, 42, 7, 2, 1}
	for i, wp := range want {
		if got := q.topPriority(); got != wp {
			t.Fatalf("step %d: topPriority = %d, want %d", i, got, wp)
		}
		th := q.pop()
		if th == nil || th.prio != wp {
			t.Fatalf("step %d: popped %v, want priority %d", i, th, wp)
		}
	}
	if q.pop() != nil || q.topPriority() != -1 {
		t.Fatal("queue not empty after draining")
	}
}

func TestRunQueueFIFOWithinLevel(t *testing.T) {
	q := &runQueue{}
	a, b, c := rqThread(50), rqThread(50), rqThread(50)
	q.enqueue(a, false)
	q.enqueue(b, false)
	q.enqueue(c, true) // preempted thread goes back to the head
	for i, want := range []*Thread{c, a, b} {
		if got := q.pop(); got != want {
			t.Fatalf("pop %d returned the wrong thread", i)
		}
	}
}

func TestRunQueueRemoveMidQueue(t *testing.T) {
	q := &runQueue{}
	a, b, c := rqThread(10), rqThread(10), rqThread(10)
	hi := rqThread(90)
	for _, th := range []*Thread{a, b, c, hi} {
		q.enqueue(th, false)
	}
	q.remove(b)
	q.remove(b) // removing an unqueued thread is a no-op
	if q.len() != 3 {
		t.Fatalf("len = %d after remove, want 3", q.len())
	}
	q.remove(hi) // level 90 empties: the bitmap bit must clear
	if got := q.topPriority(); got != 10 {
		t.Fatalf("topPriority = %d after emptying level 90, want 10", got)
	}
	for i, want := range []*Thread{a, c} {
		if got := q.pop(); got != want {
			t.Fatalf("pop %d returned the wrong thread", i)
		}
	}
	if q.pop() != nil {
		t.Fatal("queue should be empty")
	}
	// A removed thread's links are cleared, so it can be enqueued again.
	q.enqueue(b, false)
	if got := q.pop(); got != b {
		t.Fatal("re-enqueue after remove failed")
	}
}

func TestRunQueueEnqueueOutOfRangePanics(t *testing.T) {
	for _, prio := range []int{MinPriority - 1, MaxPriority + 1, -5, 1000} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("enqueue with priority %d did not panic", prio)
				}
				msg, ok := r.(string)
				if !ok || msg != "kernel: enqueue priority outside [MinPriority, MaxPriority]" {
					t.Fatalf("enqueue with priority %d panicked with %v, want the descriptive message", prio, r)
				}
			}()
			q := &runQueue{}
			q.enqueue(rqThread(prio), false)
		}()
	}
}

// TestRunQueueDoubleEnqueuePanics checks that a queued thread cannot be
// linked in a second time: its one pair of links would then thread two
// queues at once and corrupt both.
func TestRunQueueDoubleEnqueuePanics(t *testing.T) {
	q := &runQueue{}
	th := rqThread(50)
	q.enqueue(th, false)
	defer func() {
		if r := recover(); r != "kernel: thread already enqueued" {
			t.Fatalf("double enqueue panicked with %v, want the already-enqueued message", r)
		}
	}()
	q.enqueue(th, true)
}

// TestRunQueueAgainstModel drives the bitmap run queue and a trivially
// correct reference (a slice per priority level) with the same random
// operation sequence and asserts identical observable behaviour: the two
// invariants under test are strict priority across levels and FIFO order
// within a level, with remove allowed at any position.
func TestRunQueueAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	q := &runQueue{}
	model := make(map[int][]*Thread)
	var live []*Thread // threads currently enqueued, for random removal

	modelTop := func() int {
		for p := MaxPriority; p >= MinPriority; p-- {
			if len(model[p]) > 0 {
				return p
			}
		}
		return -1
	}
	modelPop := func() *Thread {
		p := modelTop()
		if p < 0 {
			return nil
		}
		th := model[p][0]
		model[p] = model[p][1:]
		return th
	}
	modelRemove := func(th *Thread) {
		lvl := model[th.prio]
		for i, x := range lvl {
			if x == th {
				model[th.prio] = append(lvl[:i:i], lvl[i+1:]...)
				return
			}
		}
	}
	dropLive := func(th *Thread) {
		for i, x := range live {
			if x == th {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}

	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // enqueue
			th := rqThread(MinPriority + rng.Intn(MaxPriority-MinPriority+1))
			atFront := rng.Intn(2) == 0
			q.enqueue(th, atFront)
			if atFront {
				model[th.prio] = append([]*Thread{th}, model[th.prio]...)
			} else {
				model[th.prio] = append(model[th.prio], th)
			}
			live = append(live, th)
		case op < 8: // pop
			got, want := q.pop(), modelPop()
			if got != want {
				t.Fatalf("step %d: pop mismatch", step)
			}
			if want != nil {
				dropLive(want)
			}
		default: // remove a random live thread
			if len(live) == 0 {
				continue
			}
			th := live[rng.Intn(len(live))]
			q.remove(th)
			modelRemove(th)
			dropLive(th)
		}
		if got, want := q.topPriority(), modelTop(); got != want {
			t.Fatalf("step %d: topPriority = %d, model says %d", step, got, want)
		}
		if q.len() != len(live) {
			t.Fatalf("step %d: len = %d, model says %d", step, q.len(), len(live))
		}
	}
}
