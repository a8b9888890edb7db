GO ?= go

.PHONY: all build test examples race bench bench-pairs size vet fmt-check ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every example runs to the end (≈ 8 s together); a non-zero exit or a run
# past 60 s fails.
examples:
	@for d in examples/*/; do echo "== $$d"; timeout 60 $(GO) run ./$$d || exit 1; done

# Race-detector pass over the concurrent core; package-level tests are where
# the lock-ordering and group-commit races would surface.
race:
	$(GO) test -race ./internal/...

# The package micro-benchmarks (storage, statemachine, the submit path); the
# storage backends get a real -benchtime. The end-to-end benchmark is bench/
# (bench-pairs below).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) test -run '^$$' -bench StorageBackends -benchtime 2s ./internal/storage/

# Alternating parent/change pairs of the repo benchmark (bench/, the
# loopback-TCP one the driver gates on), written to $(OUT): per pair both
# sides' setup_s, ops_per_s, latency percentiles and the other bounded
# end-to-end metrics, with medians, quartiles, wins and a verdict each, and
# the runner facts. The working tree is the change. A PR's trajectory file is
# e.g. `make bench-pairs PARENT=dda35cb OUT=BENCH_18.json`.
PARENT ?= HEAD~1
WORKLOADS ?= steady-write,durable-write,read-mostly,reconfig-churn
PAIRS ?= 10
WINDOW ?= 25
OUT ?= BENCH_pairs.json
bench-pairs:
	scripts/pairs.sh $(PARENT) $(WORKLOADS) $(PAIRS) $(WINDOW) $(OUT)

# The one way to count the tree: non-test and test Go code lines per package
# outside bench/, and the exported fields of the option structs, which fails
# when a struct has more than its bound in the script.
size:
	scripts/size.sh

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The first two recipe lines are CI's allocation gates as CI runs them (CI's
# Test step is -short, under which the loaded-path tests only print): bytes per
# put on the write path, and what a replica allocates and the goroutines it
# runs at rest.
# The third is CI's fsync budgets, by count, and a Start that waits on no
# flush. The fourth fails when non-test code outside storage.Staged
# type-asserts a staging interface, and the fifth when non-test code above
# internal/storage calls a store's Set or Delete. The sixth fails when
# internal/reconfig's non-test code names paxos beyond Options.Paxos and the
# default engine factory built from it. The seventh is the one-node-loop check
# (scripts/loopcheck.sh, which lists its rules): no second owner of the node's
# state, lock or loop is back in internal/reconfig, and the loop's state is
# assigned only where the loop or what runs before it does. The eighth fails
# when non-test code under internal/ or cmd/ names the within-configuration
# checkpoint and truncation machinery that the log bound replaced (one
# compaction mechanism). The ninth fuzzes RestoreChunk, the one decoder of
# snapshot bytes from peers, for 10 s. bench/ is a nested module (bench/go.mod)
# that ./... does not descend into; the tenth line notices a program change
# that breaks the benchmark's build. The eleventh checks the ledger's verdict
# arithmetic (scripts/pairs.awk) on fixture rows. The last prints what CI's
# Size step puts on the run's summary page and fails, as that step does, when
# an option struct, the n.mu.Lock() sites or the go statements of
# internal/reconfig exceed their bound.
ci: vet build examples test race fmt-check
	$(GO) test -run 'TestLoadedWritePathBytesPerOp' -count=1 ./internal/cluster/
	$(GO) test -run 'TestReplicaConstructionAllocates|TestReplicaAtRestGoroutines' -count=1 ./internal/reconfig/
	$(GO) test -run 'TestBootstrapFsyncBudget|TestStartWaitsOnNoDisk|TestWriteChunkedCommitFsyncBudget|TestDeleteChunkedFsyncBudget|TestOpenWALStoreCostsNoFsync|TestTransferFsyncBudget' -count=1 ./internal/reconfig/ ./internal/storage/
	! grep -rnE '\.\((storage\.)?(BufferedStore|Stager)\)' --include='*.go' internal cmd examples | grep -v '_test.go:' | grep -v '^internal/storage/storage.go:'
	! grep -rnE '\bstore\.(Set|Delete)\(|WriteChunkManifest\(' --include='*.go' internal cmd examples | grep -v '_test.go:' | grep -v '^internal/storage/'
	! grep -nE 'paxos\.|"repro/internal/paxos"' $$(ls internal/reconfig/*.go | grep -v '_test\.go$$') | grep -vE '^internal/reconfig/node\.go:[0-9]+:[[:space:]]*(Paxos paxos\.Options|o\.engine = paxos\.Factory\(o\.Paxos\)|"repro/internal/paxos")$$'
	scripts/loopcheck.sh
	! grep -rnwE 'TruncateBelow|SkipTo|CheckpointNeeded|TruncatedBelow|persistTruncated|behindLocked|catchupGapSlots|checkpointMargin|opCkptAnnounce|opCkptAck' --include='*.go' internal cmd | grep -v '_test.go:'
	$(GO) test -run '^$$' -fuzz '^FuzzSessionedRestoreChunk$$' -fuzztime 10s ./internal/statemachine/
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...
	scripts/pairs_test.sh
	scripts/size.sh
