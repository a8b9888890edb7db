package reconfig

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/types"
)

// TestBackoffSchedule pins the deterministic (nil-rng) schedule: doubling
// from base, capped at max. A change to the retry cadence must be deliberate
// enough to edit this table.
func TestBackoffSchedule(t *testing.T) {
	base := 10 * time.Millisecond
	max := 400 * time.Millisecond
	want := []time.Duration{
		10 * time.Millisecond,  // attempt 1
		20 * time.Millisecond,  // attempt 2
		40 * time.Millisecond,  // attempt 3
		80 * time.Millisecond,  // attempt 4
		160 * time.Millisecond, // attempt 5
		320 * time.Millisecond, // attempt 6
		400 * time.Millisecond, // attempt 7 (capped)
		400 * time.Millisecond, // attempt 8 (stays capped)
	}
	for i, w := range want {
		if got := BackoffDelay(i+1, base, max, nil); got != w {
			t.Errorf("attempt %d: got %v, want %v", i+1, got, w)
		}
	}
}

func TestBackoffDegenerateInputs(t *testing.T) {
	if got := BackoffDelay(0, 10*time.Millisecond, 0, nil); got != 10*time.Millisecond {
		t.Errorf("attempt 0 clamps to 1: got %v", got)
	}
	if got := BackoffDelay(3, 0, 0, nil); got != 4*time.Millisecond {
		t.Errorf("zero base defaults to 1ms: got %v", got)
	}
	// No max: pure doubling.
	if got := BackoffDelay(10, time.Millisecond, 0, nil); got != 512*time.Millisecond {
		t.Errorf("uncapped attempt 10: got %v", got)
	}
}

// TestBackoffJitterBounds checks every jittered delay stays within ±25% of
// the deterministic midpoint, and that the jitter actually spreads values.
func TestBackoffJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(types.SeedFor("jitter-test")))
	base := 10 * time.Millisecond
	max := 400 * time.Millisecond
	seen := map[time.Duration]bool{}
	for attempt := 1; attempt <= 8; attempt++ {
		mid := BackoffDelay(attempt, base, max, nil)
		lo, hi := mid-mid/4, mid+mid/4
		for i := 0; i < 200; i++ {
			d := BackoffDelay(attempt, base, max, rng)
			if d < lo || d > hi {
				t.Fatalf("attempt %d: %v outside [%v, %v]", attempt, d, lo, hi)
			}
			seen[d] = true
		}
	}
	if len(seen) < 50 {
		t.Fatalf("jitter too clustered: only %d distinct delays", len(seen))
	}
}
