package kernel

import (
	"testing"
	"testing/quick"
)

// fifoThreads returns the queued threads of f from head to tail, checking
// on the way that every back link mirrors its forward link.
func fifoThreads(t *testing.T, f *threadFIFO) []*Thread {
	t.Helper()
	var out []*Thread
	var prev *Thread
	for th := f.head; th != nil; th = th.qnext {
		if th.qprev != prev {
			t.Fatalf("thread %d: qprev does not point at its predecessor", len(out))
		}
		out = append(out, th)
		prev = th
	}
	if f.tail != prev {
		t.Fatal("tail is not the last thread reached from head")
	}
	return out
}

func sameThreads(got, want []*Thread) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestThreadFIFOZeroValueUsable(t *testing.T) {
	var f threadFIFO
	a := rqThread(1)
	f.pushBack(a)
	if f.len() != 1 || f.head != a || f.tail != a {
		t.Fatal("zero-value threadFIFO should accept pushBack")
	}
	if got := f.popFront(); got != a || f.len() != 0 {
		t.Fatal("zero-value threadFIFO should pop what it was given")
	}
}

func TestThreadFIFOPushFront(t *testing.T) {
	var f threadFIFO
	a, b, c := rqThread(1), rqThread(1), rqThread(1)
	f.pushBack(b)
	f.pushFront(a)
	f.pushBack(c)
	if got := fifoThreads(t, &f); !sameThreads(got, []*Thread{a, b, c}) {
		t.Fatal("pushFront did not put the thread at the head")
	}
}

func TestThreadFIFORemoveMiddle(t *testing.T) {
	var f threadFIFO
	var ths []*Thread
	for i := 0; i < 5; i++ {
		th := rqThread(1)
		ths = append(ths, th)
		f.pushBack(th)
	}
	f.remove(ths[2])
	if f.len() != 4 {
		t.Fatalf("len %d, want 4", f.len())
	}
	want := []*Thread{ths[0], ths[1], ths[3], ths[4]}
	if got := fifoThreads(t, &f); !sameThreads(got, want) {
		t.Fatal("remove from the middle broke the order of the rest")
	}
	if ths[2].qnext != nil || ths[2].qprev != nil {
		t.Fatal("removed thread should have nil links")
	}
}

func TestThreadFIFONodeReuseAfterRemove(t *testing.T) {
	var f threadFIFO
	a := rqThread(1)
	f.pushBack(a)
	f.remove(a)
	f.pushFront(a)
	if f.len() != 1 || f.head != a || f.tail != a {
		t.Fatal("a removed thread should be linkable again")
	}
}

// TestThreadFIFOAgainstDequeModel checks that any sequence of pushBack,
// pushFront, popFront and remove leaves the queue in the order a slice
// model predicts.
func TestThreadFIFOAgainstDequeModel(t *testing.T) {
	f := func(ops []uint8) bool {
		var q threadFIFO
		var model []*Thread
		for _, op := range ops {
			switch op % 4 {
			case 0:
				th := rqThread(1)
				q.pushBack(th)
				model = append(model, th)
			case 1:
				th := rqThread(1)
				q.pushFront(th)
				model = append([]*Thread{th}, model...)
			case 2:
				got := q.popFront()
				if len(model) == 0 {
					if got != nil {
						return false
					}
				} else {
					if got != model[0] {
						return false
					}
					model = model[1:]
				}
			case 3:
				if len(model) == 0 {
					continue
				}
				i := int(op/4) % len(model)
				q.remove(model[i])
				model = append(model[:i:i], model[i+1:]...)
			}
			if q.len() != len(model) {
				return false
			}
		}
		return sameThreads(fifoThreads(t, &q), model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
