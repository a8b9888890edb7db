package reconfig

import (
	"math/rand"
	"time"
)

// BackoffDelay computes the sleep before retry number attempt (1-based):
// exponential doubling from base, capped at max, with ±25% jitter drawn from
// rng so retry storms from nodes that failed together decorrelate. A nil rng
// yields the deterministic midpoint (used by the schedule-pinning test).
func BackoffDelay(attempt int, base, max time.Duration, rng *rand.Rand) time.Duration {
	if base <= 0 {
		base = time.Millisecond
	}
	if attempt < 1 {
		attempt = 1
	}
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if max > 0 && d >= max {
			d = max
			break
		}
	}
	if max > 0 && d > max {
		d = max
	}
	if rng != nil {
		if q := int64(d) / 4; q > 0 {
			d += time.Duration(rng.Int63n(2*q+1) - q)
		}
	}
	return d
}
