GO ?= go

.PHONY: all build test race bench bench-pairs bench-read bench-snapshot bench-write bench-shard bench-reconfig bench-catchup bench-mega size vet fmt-check ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the concurrent core; package-level tests are where
# the lock-ordering and group-commit races would surface.
race:
	$(GO) test -race ./internal/...

# Full experiment suite, one pass per benchmark (each iteration is a complete
# wall-clock scenario). Storage micro-benchmarks get a real -benchtime.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) test -run '^$$' -bench StorageBackends -benchtime 2s ./internal/storage/

# Read-path smoke: one pass of the R1 read-scaling benchmark (serving mode x
# read ratio on the durable WAL backend) — quick sanity that the fast path
# still beats log reads. The full sweep lives in `rsmbench -exp read`.
bench-read:
	$(GO) test -run '^$$' -bench R1ReadScaling -benchtime 1x .

# State-transfer smoke: one composed member swap with ~4MB of preloaded
# state, reporting commit gap, reconfigure time and wedge capture time (the
# COW fork under the node mutex). The full sweep lives in
# `rsmbench -exp t2,f2,f5`; the monolithic-transfer arm it used to compare
# against was deleted after T2's verdict (last reproducible at e470030).
bench-snapshot:
	$(GO) test -run '^$$' -bench SnapshotTransfer -benchtime 1x .
	$(GO) test -run '^$$' -bench ForkVsSnapshot -benchtime 2s ./internal/statemachine/

# Write-path smoke: one pass of the pipeline-depth sweep on the fsynced WAL
# backend. The full W1 table with open-loop latency lives in `rsmbench -exp
# write`; the serial-apply arm it used to carry is retired (EXPERIMENTS.md,
# "Retired arms").
bench-write:
	$(GO) test -run '^$$' -bench PipelineDepth -benchtime 1x .

# Sharded-runtime smoke: one pass of the S1 group-count sweep (1 vs 8 groups
# over shared TCP+WAL, routed write load). The full 1/2/4/8 table with the
# fsync-coalescing columns lives in `rsmbench -exp shard`.
bench-shard:
	$(GO) test -run '^$$' -bench ShardScaling -benchtime 1x .

# Reconfig-latency smoke: one pass of the R2 shootout at 8MB state —
# speculative vs wait-for-transfer successor start (full member replacement)
# vs the in-band baseline, reporting time-to-first-decide in c+1 and the
# commit gap. The canonical table lives in `rsmbench -exp reconfig`.
bench-reconfig:
	$(GO) test -run '^$$' -bench R2ReconfigShootout -benchtime 1x .

# Catch-up smoke: one pass of the K1 shootout — a member lagging 50k decided
# slots at 8MB state heals and catches up by checkpoint fetch vs the
# NoCheckpoints full-replay ablation, plus restart-recovery time and the
# retained-log bound. The canonical table lives in `rsmbench -exp catchup`.
bench-catchup:
	$(GO) test -run '^$$' -bench K1Catchup -benchtime 1x .

# Megaload smoke: one pass of the C1 benchmark — 100k open-loop client
# sessions through a reconfiguration storm, every op accounted in one of four
# buckets (0 silent). The canonical table lives in `rsmbench -exp mega`; the
# naive-client arm is retired (EXPERIMENTS.md, "Retired arms").
bench-mega:
	$(GO) test -run '^$$' -bench C1Megaload -benchtime 1x -timeout 30m .

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

# bench/ is a nested module (bench/go.mod) that ./... does not descend into;
# the recipe line notices a program change that breaks the benchmark's build.
ci: vet build test race fmt-check
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...
