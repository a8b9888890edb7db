package paxos

// Unbatched returns o with one command per slot, for tests outside the package
// that observe raw decisions rather than CmdBatch envelopes.
func Unbatched(o Options) Options {
	o.batchSize = 1
	return o
}
