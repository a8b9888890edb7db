// Package repro reproduces "Brief announcement: reconfigurable state machine
// replication from non-reconfigurable building blocks" (Bortnikov, Chockler,
// Perelman, Roytman, Shachor, Shnayderman; PODC 2012) as a complete Go
// library: a reconfigurable SMR service composed from chained static
// Multi-Paxos engines, the full substrate it runs on (simulated network,
// stable storage, deterministic state machines, client sessions), and the
// rsmd console over it.
//
// Start with DESIGN.md for the system inventory, internal/reconfig for the
// contribution's API, and examples/quickstart for a running tour. The
// benchmark is its own module under bench/:
//
//	go run -C bench repro/bench --workload reconfig-churn
package repro
