//go:build !race

package reconfig

// raceEnabled lets heavyweight chaos tests scale their op targets down when
// the race detector multiplies per-op cost, and the allocation gate print
// instead of judge.
const raceEnabled = false
