// Package fifo is the bounded queue between a replica's producers — socket
// readers, proposers, an engine's decision stream — and the one goroutine that
// consumes them.
//
// A buffered channel of the same bound preallocates all of it: 8192 slots of
// an inbox cost a replica about 400 KB before its first message. A Queue's
// backing array grows with what is queued and is reused once grown, so a
// replica at rest costs what it holds. Producers take the lock once per item;
// the consumer takes a batch under one lock, and the wake signal fires once
// per batch, not once per item.
package fifo

import "sync"

// Queue is a bounded FIFO with any number of producers and one consumer.
// The consumer waits on Wake and then calls Take until it returns nothing (or
// it stops early: Take re-arms the wake whenever it leaves items behind).
type Queue[T any] struct {
	mu      sync.Mutex
	items   []T // items[head:] are queued, oldest first
	head    int
	limit   int
	high    int // most items ever queued at once
	waiting int // producers parked in Put
	wake    chan struct{}
	space   chan struct{}
}

// New returns an empty queue that holds at most limit items.
func New[T any](limit int) *Queue[T] {
	return &Queue[T]{limit: limit, wake: make(chan struct{}, 1), space: make(chan struct{}, 1)}
}

// Wake is signalled when the queue goes from empty to non-empty, and by a
// Take that leaves items queued. A signal may be stale: Take then returns
// nothing.
func (q *Queue[T]) Wake() <-chan struct{} { return q.wake }

// TryPut appends v, or reports false without waiting if the queue is full.
func (q *Queue[T]) TryPut(v T) bool {
	q.mu.Lock()
	if len(q.items)-q.head >= q.limit {
		q.mu.Unlock()
		return false
	}
	wasEmpty := q.putLocked(v)
	q.mu.Unlock()
	if wasEmpty {
		signal(q.wake)
	}
	return true
}

// Put appends v, waiting while the queue is full. It reports false, with v
// not queued, if stop closes first.
func (q *Queue[T]) Put(v T, stop <-chan struct{}) bool {
	q.mu.Lock()
	for len(q.items)-q.head >= q.limit {
		q.waiting++
		q.mu.Unlock()
		select {
		case <-q.space:
		case <-stop:
			q.mu.Lock()
			q.waiting--
			q.mu.Unlock()
			return false
		}
		q.mu.Lock()
		q.waiting--
	}
	wasEmpty := q.putLocked(v)
	// One signal wakes one parked producer; pass it on while there is room.
	passOn := q.waiting > 0 && len(q.items)-q.head < q.limit
	q.mu.Unlock()
	if wasEmpty {
		signal(q.wake)
	}
	if passOn {
		signal(q.space)
	}
	return true
}

// putLocked appends v and reports whether the queue was empty before.
func (q *Queue[T]) putLocked(v T) bool {
	if q.head > 0 && len(q.items) == cap(q.items) {
		// Full array with taken items in front: slide the queue down rather
		// than grow it.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
	n := len(q.items) - q.head
	q.high = max(q.high, n)
	return n == 1
}

// Take moves up to n of the oldest items onto dst, in order, and returns
// it. The items are copied out, so dst never shares an array with the queue.
// If items remain it re-arms the wake, so a consumer that stops at a budget
// is woken again for the rest.
func (q *Queue[T]) Take(dst []T, n int) []T {
	q.mu.Lock()
	k := min(n, len(q.items)-q.head)
	dst = append(dst, q.items[q.head:q.head+k]...)
	clear(q.items[q.head : q.head+k]) // drop the references the queue held
	q.head += k
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	left := len(q.items) - q.head
	freed := k > 0 && q.waiting > 0
	q.mu.Unlock()
	if left > 0 {
		signal(q.wake)
	}
	if freed {
		signal(q.space)
	}
	return dst
}

// Len is the number of items queued.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}

// High is the most items that were ever queued at once.
func (q *Queue[T]) High() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.high
}

func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}
