package stats

import (
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
