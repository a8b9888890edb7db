package stats

import (
	"sync"
	"testing"
	"time"
)

func TestTimelineSeriesAndGap(t *testing.T) {
	tl := NewTimeline()
	for i := 0; i < 5; i++ {
		tl.Record()
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // a gap
	tl.Record()
	tl.MarkNow("after-gap")

	if tl.Count() != 6 {
		t.Fatalf("count %d", tl.Count())
	}
	series := tl.Series(time.Millisecond)
	var total int64
	for _, b := range series {
		total += b
	}
	if total != 6 {
		t.Fatalf("series total %d (%v)", total, series)
	}
	if gap := tl.LongestGap(); gap < 15*time.Millisecond {
		t.Fatalf("longest gap %v", gap)
	}
	marks := tl.Marks()
	if len(marks) != 1 || marks[0].Label != "after-gap" {
		t.Fatalf("marks %+v", marks)
	}
}

func TestTimelineEmpty(t *testing.T) {
	tl := NewTimeline()
	if tl.Series(time.Millisecond) != nil {
		t.Fatal("series of empty timeline")
	}
	if tl.LongestGap() != 0 {
		t.Fatal("gap of empty timeline")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 4000 {
		t.Fatalf("counter %d", c.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 1, 2, 3, 4, 7, 8, 1000} {
		h.Observe(v)
	}
	if h.Count() != 9 || h.Max() != 1000 || h.Sum() != 1026 {
		t.Fatalf("count=%d max=%d sum=%d", h.Count(), h.Max(), h.Sum())
	}
	want := []HistogramBucket{
		{Lo: 0, Hi: 0, Count: 1},
		{Lo: 1, Hi: 1, Count: 2},
		{Lo: 2, Hi: 3, Count: 2},
		{Lo: 4, Hi: 7, Count: 2},
		{Lo: 8, Hi: 15, Count: 1},
		{Lo: 512, Hi: 1023, Count: 1},
	}
	got := h.Buckets()
	if len(got) != len(want) {
		t.Fatalf("buckets %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if h.Mean() < 100 || h.Mean() > 200 {
		t.Fatalf("mean %v", h.Mean())
	}
	if (&Histogram{}).String() != "empty" {
		t.Fatal("empty histogram string")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= 100; i++ {
				h.Observe(i)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 800 {
		t.Fatalf("count %d", h.Count())
	}
}
