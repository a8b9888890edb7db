package fifo

import (
	"sync"
	"testing"
	"time"
)

func woken(q *Queue[int]) bool {
	select {
	case <-q.Wake():
		return true
	default:
		return false
	}
}

// Items leave in the order they came, across batch takes of any size and
// across the array sliding down under a consumer that takes part of the queue
// at a time; a take that leaves items behind re-arms the wake, one that
// empties the queue does not.
func TestFIFOOrderAcrossTakes(t *testing.T) {
	q := New[int](100)
	next, want := 0, 0
	var got []int
	for round := 0; round < 40; round++ { // the backlog grows by two a round
		for i := 0; i < 7; i++ {
			if !q.TryPut(next) {
				t.Fatalf("put %d refused with %d queued", next, q.Len())
			}
			next++
		}
		woken(q) // the consumer wakes
		got = q.Take(got[:0], 5)
		if left := q.Len(); left > 0 && !woken(q) {
			t.Fatalf("round %d: a take left %d items and did not re-arm the wake", round, left)
		}
		for _, v := range got {
			if v != want {
				t.Fatalf("took %d where %d was due", v, want)
			}
			want++
		}
	}
	for q.Len() > 0 {
		woken(q)
		for _, v := range q.Take(nil, 3) {
			if v != want {
				t.Fatalf("took %d where %d was due", v, want)
			}
			want++
		}
	}
	if want != next {
		t.Fatalf("took %d of %d items", want, next)
	}
	if woken(q) {
		t.Fatal("a take that emptied the queue left the wake armed")
	}
	if q.High() <= 5 {
		t.Fatalf("high-water mark %d, want the backlog the slow consumer built", q.High())
	}
}

// The item past the bound is refused, and accepted once a take makes room.
func TestFIFOTryPutRefusesPastLimit(t *testing.T) {
	q := New[int](4)
	for i := 0; i < 4; i++ {
		if !q.TryPut(i) {
			t.Fatalf("put %d refused below the bound", i)
		}
	}
	if q.TryPut(4) {
		t.Fatal("fifth put accepted at a bound of four")
	}
	q.Take(nil, 1)
	if !q.TryPut(4) {
		t.Fatal("put refused after a take made room")
	}
}

// A taken batch is the consumer's: whatever is put afterwards — after a take
// of an empty queue too — never lands in an array the consumer holds. (A
// double-buffered queue that handed its spare array back to producers on an
// empty take had producer and consumer writing one array.)
func TestFIFOTakeSharesNoArray(t *testing.T) {
	q := New[int](64)
	for i := 0; i < 8; i++ {
		q.TryPut(i)
	}
	held := q.Take(make([]int, 0, 64), 64)
	spare := q.Take(make([]int, 0, 64), 64) // the queue is empty now
	if len(spare) != 0 {
		t.Fatalf("empty take returned %v", spare)
	}
	for i := 100; i < 140; i++ {
		q.TryPut(i)
	}
	for i, v := range held {
		if v != i {
			t.Fatalf("held batch changed under the consumer: %v", held)
		}
	}
	if got := spare[:cap(spare)][:1]; got[0] != 0 {
		t.Fatalf("a put landed in the array of an empty take: %v", got)
	}
	if got := q.Take(nil, 64); len(got) != 40 || got[0] != 100 {
		t.Fatalf("took %v after the puts", got)
	}
}

// Put waits while the queue is full, and every parked producer is let in as
// takes make room; a stop releases a parked producer without queuing its item.
func TestFIFOPutWaitsForRoom(t *testing.T) {
	q := New[int](2)
	q.TryPut(0)
	q.TryPut(1)
	var wg sync.WaitGroup
	for i := 2; i < 5; i++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			if !q.Put(v, nil) {
				t.Errorf("put %d gave up without a stop", v)
			}
		}(i)
	}
	parked := func() int {
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.waiting
	}
	for deadline := time.Now().Add(5 * time.Second); parked() < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 3 producers parked on a full queue", parked())
		}
	}
	if n := q.Len(); n != 2 {
		t.Fatalf("%d queued at a bound of two", n)
	}
	taken := 0
	deadline := time.Now().Add(5 * time.Second)
	for taken < 5 && time.Now().Before(deadline) {
		taken += len(q.Take(nil, 1))
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	if taken != 5 {
		t.Fatalf("took %d of 5 items: a parked producer was never let in", taken)
	}

	q.TryPut(0)
	q.TryPut(1)
	stop := make(chan struct{})
	done := make(chan bool)
	go func() { done <- q.Put(2, stop) }()
	close(stop)
	if <-done {
		t.Fatal("put on a full queue succeeded after stop")
	}
	if n := q.Len(); n != 2 {
		t.Fatalf("%d queued after a stopped put", n)
	}
}
