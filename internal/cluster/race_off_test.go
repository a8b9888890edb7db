//go:build !race

package cluster

// raceEnabled lets the allocation gate print instead of judge under the race
// detector, which halves the clumps (more fixed objects per put) and
// allocates on its own account.
const raceEnabled = false
