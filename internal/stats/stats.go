// Package stats provides measurement primitives: event timelines binned over
// wall-clock time with their longest gap (downtime), monotone counters, and
// power-of-two histograms.
package stats

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Timeline records event timestamps and reports them as a binned series —
// the committed-operations-over-time figures. Safe for concurrent use.
type Timeline struct {
	mu     sync.Mutex
	start  time.Time
	events []time.Time
	marks  []Mark
}

// Mark labels an instant on a timeline (e.g. "reconfig issued").
type Mark struct {
	At    time.Time
	Label string
}

// NewTimeline starts a timeline at now.
func NewTimeline() *Timeline {
	return &Timeline{start: time.Now()}
}

// Start returns the timeline origin.
func (t *Timeline) Start() time.Time { return t.start }

// Record notes one event at the current instant.
func (t *Timeline) Record() {
	now := time.Now()
	t.mu.Lock()
	t.events = append(t.events, now)
	t.mu.Unlock()
}

// MarkNow labels the current instant.
func (t *Timeline) MarkNow(label string) {
	now := time.Now()
	t.mu.Lock()
	t.marks = append(t.marks, Mark{At: now, Label: label})
	t.mu.Unlock()
}

// Count returns the number of recorded events.
func (t *Timeline) Count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Marks returns the recorded labels with offsets from the origin.
func (t *Timeline) Marks() []Mark {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Mark, len(t.marks))
	copy(out, t.marks)
	return out
}

// Series bins the events into windows of the given width, from the timeline
// origin through the last event. Empty trailing bins are preserved up to the
// last event's bin.
func (t *Timeline) Series(bin time.Duration) []int64 {
	t.mu.Lock()
	events := make([]time.Time, len(t.events))
	copy(events, t.events)
	start := t.start
	t.mu.Unlock()
	if len(events) == 0 || bin <= 0 {
		return nil
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Before(events[j]) })
	last := events[len(events)-1]
	n := int(last.Sub(start)/bin) + 1
	out := make([]int64, n)
	for _, e := range events {
		idx := int(e.Sub(start) / bin)
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		out[idx]++
	}
	return out
}

// LongestGap returns the longest interval between consecutive events (the
// downtime measure), looking only at events after the timeline origin, and
// including the origin itself as a virtual first event.
func (t *Timeline) LongestGap() time.Duration {
	t.mu.Lock()
	events := make([]time.Time, len(t.events))
	copy(events, t.events)
	start := t.start
	t.mu.Unlock()
	if len(events) == 0 {
		return 0
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Before(events[j]) })
	longest := events[0].Sub(start)
	for i := 1; i < len(events); i++ {
		if gap := events[i].Sub(events[i-1]); gap > longest {
			longest = gap
		}
	}
	return longest
}

// Counter is a concurrency-safe monotone counter.
type Counter struct {
	mu sync.Mutex
	v  int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	c.mu.Lock()
	c.v += d
	c.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// ReadPathCounters aggregates the outcomes of the linearizable read fast
// path: reads served without a log append (hits), reads that fell back to
// the ordinary log path, and reads refused because their configuration was
// wedged by a reconfiguration (fenced).
type ReadPathCounters struct {
	Fast     Counter
	Fallback Counter
	Fenced   Counter
}

// Snapshot returns the three counts at once.
func (c *ReadPathCounters) Snapshot() (fast, fallback, fenced int64) {
	return c.Fast.Value(), c.Fallback.Value(), c.Fenced.Value()
}

// Histogram counts values in power-of-two buckets: bucket i holds values v
// with 2^(i-1) <= v < 2^i (bucket 0 holds v <= 0 and v == 1 lands in bucket
// 1). It is safe for concurrent use and cheap enough for per-message paths —
// the transport uses one to record frame sizes.
type Histogram struct {
	mu      sync.Mutex
	buckets [65]int64
	count   int64
	sum     int64
	max     int64
}

// HistogramBucket is one non-empty bucket of a Histogram snapshot.
type HistogramBucket struct {
	Lo, Hi int64 // value range [Lo, Hi]
	Count  int64
}

// Observe adds one value.
func (h *Histogram) Observe(v int64) {
	idx := 0
	if v > 0 {
		idx = bitLen64(uint64(v))
	}
	h.mu.Lock()
	h.buckets[idx]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Max returns the largest observed value.
func (h *Histogram) Max() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Mean returns the average observed value, 0 when empty.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Buckets returns the non-empty buckets in ascending value order.
func (h *Histogram) Buckets() []HistogramBucket {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []HistogramBucket
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		b := HistogramBucket{Count: c}
		if i > 0 {
			b.Lo = int64(1) << (i - 1)
			b.Hi = int64(1)<<i - 1
		}
		out = append(out, b)
	}
	return out
}

// String renders the non-empty buckets compactly, e.g. "[64,127]:12".
func (h *Histogram) String() string {
	bs := h.Buckets()
	if len(bs) == 0 {
		return "empty"
	}
	var sb []byte
	for i, b := range bs {
		if i > 0 {
			sb = append(sb, ' ')
		}
		sb = append(sb, fmt.Sprintf("[%d,%d]:%d", b.Lo, b.Hi, b.Count)...)
	}
	return string(sb)
}

// bitLen64 returns the minimum number of bits to represent v (0 for v==0).
func bitLen64(v uint64) int {
	n := 0
	for v > 0 {
		n++
		v >>= 1
	}
	return n
}
