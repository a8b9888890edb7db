GO ?= go

.PHONY: all build test examples race bench bench-pairs bench-reconfig bench-catchup bench-mega size vet fmt-check ci

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
# storage backends get a real -benchtime. The experiments are not Go
# benchmarks: `go run ./cmd/rsmbench -h` lists them, and the three targets
# below run the ones EXPERIMENTS.md quotes a canonical table for.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) test -run '^$$' -bench StorageBackends -benchtime 2s ./internal/storage/

# R2: speculative vs wait-for-transfer successor start, full member
# replacement at 8MB state — time-to-first-decide in c+1 and the commit gap.
bench-reconfig:
	$(GO) run ./cmd/rsmbench -exp reconfig

# K1: a member lagging 50k decided slots at 8MB state heals and catches up by
# checkpoint fetch vs the NoCheckpoints full-replay ablation, plus
# restart-recovery time and the retained-log bound.
bench-catchup:
	$(GO) run ./cmd/rsmbench -exp catchup

# C1: 100k open-loop client sessions through a reconfiguration storm, every op
# accounted in one of four buckets (0 silent).
bench-mega:
	$(GO) run ./cmd/rsmbench -exp mega

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
# outside bench/, and the exported fields of the option structs.
size:
	scripts/size.sh

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The first two recipe lines are CI's allocation gates as CI runs them (CI's
# Test step is -short, under which the loaded-path tests only print): bytes per
# put on the write path, and what a replica allocates before its first message.
# The third fuzzes RestoreChunk, the one decoder of snapshot bytes from peers,
# for 10 s. bench/ is a nested module (bench/go.mod) that ./... does not
# descend into; the fourth line notices a program change that breaks the
# benchmark's build.
# The next is CI's rsmbench front door: an unknown ID and the retired f5 exit 2
# before anything runs (built first: `go run` reports any failing exit as 1).
# The last prints what CI's Size step puts on the run's summary page.
ci: vet build examples test race fmt-check
	$(GO) test -run 'TestLoadedWritePathBytesPerOp' -count=1 ./internal/cluster/
	$(GO) test -run 'TestReplicaConstructionAllocates' -count=1 ./internal/reconfig/
	$(GO) test -run '^$$' -fuzz '^FuzzSessionedRestoreChunk$$' -fuzztime 10s ./internal/statemachine/
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...
	@dir=$$(mktemp -d) && $(GO) build -o $$dir/rsmbench ./cmd/rsmbench && \
	for e in nosuch f5; do rc=0; $$dir/rsmbench -exp $$e 2>/dev/null || rc=$$?; \
		test $$rc -eq 2 || { echo "rsmbench -exp $$e: exit $$rc, want 2"; exit 1; }; \
	done; rm -rf $$dir
	scripts/size.sh
