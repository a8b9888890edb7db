// Package stats provides measurement primitives: event timelines binned over
// wall-clock time with their longest gap (downtime).
package stats

import (
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
