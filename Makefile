GO ?= go

.PHONY: build test race vet fmt-check bench bench-smoke metrics-lint crash-matrix serve-smoke shard-stress cpu-sweep speedup benchmark-test fuzz-smoke examples loc verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any Go file is not gofmt-formatted, listing it.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke runs every benchmark exactly once (no timing fidelity) to
# catch benchmarks that panic or fail to build; cheap enough for CI.
# The sharded-commit benchmark additionally runs at -cpu 1,4, the pair
# its shard-count scaling is read at.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...
	$(GO) test -bench=BenchmarkShardedCommit -benchtime=1x -cpu=1,4 -run='^$$' .

# metrics-lint drives real concurrent workloads — including the
# materialized-reader stress mode — and validates that the live registry
# renders as well-formed Prometheus text exposition (grammar, cumulative
# buckets ending in +Inf, per-object, per-relation, and
# viewobject_materialize_* series present).
metrics-lint:
	$(GO) test -run '^TestMetricsLint' -count=1 ./internal/workload

# crash-matrix runs the durability fault-injection suite under the race
# detector, on the DIR/shard-<i> layout every durable session uses: WAL
# truncation at every byte-group boundary, mid-log corruption and
# checkpoint crash leftovers on a 1-shard cluster, cuts at every 2PC
# step, and a kill -9 of a child process running live stress traffic
# over 1 and 2 shards.
crash-matrix:
	$(GO) test -race -run '^TestCrashMatrix' -count=1 ./internal/workload

# serve-smoke boots the real binary in -serve -data-dir mode, drives
# acknowledged updates at it over HTTP, SIGTERMs it mid-traffic, and
# proves no acknowledged generation is lost. The open-loop load run is
# the benchmark's (benchmark-test); the /metrics exposition is linted by
# the serve suite.
serve-smoke:
	$(GO) test -run '^TestServeSignalDurability$$' -count=1 ./cmd/penguin

# shard-stress drives the sharded coordinator under the race detector:
# the concurrent write mix over a live cluster (fast path + forced
# cross-shard traffic, N-shard results pinned identical to 1-shard), the
# read cut (a query beside global commits reads one cluster state),
# the HTTP surface (its whole suite is one table over 1 and 3 shards),
# and the cross-shard half of the crash matrix (2PC step kills +
# kill -9 of a 2-shard cluster under stress traffic).
shard-stress:
	$(GO) test -race -run '^TestSharded' -count=1 ./internal/workload
	$(GO) test -race -count=1 ./internal/serve
	$(GO) test -race -run '^TestCrashMatrix(CrossShard2PC|Kill9)$$/^shards=2$$' -count=1 ./internal/workload

# cpu-sweep reruns the assembly, storage and serving suites at 1, 2, 3,
# 4 and 8 cores. A read runs on its request's goroutine, but the
# stress, commit and serving tests race goroutines whose interleavings
# change with the core count, and tier-1 was once red at 2 and 3 cores
# while the 1- and 4-core runs CI made stayed green.
cpu-sweep:
	for n in 1 2 3 4 8; do GOMAXPROCS=$$n $(GO) test -count=1 ./internal/viewobject ./internal/reldb/... ./internal/serve || exit 1; done

# speedup runs the materialized-read gate alone, so its wall-clock
# ratio (a cache hit at least 5x faster than a cold instantiation) is
# timed with no other suite sharing the host; go test ./... asserts the
# same mechanism by counts only.
speedup:
	$(GO) test -count=1 -run '^TestMaterializedReadSpeedup$$' .

# benchmark-test runs the end-to-end benchmark's own tests (loader,
# open-loop accounting, layer ledger) against the current engine.
benchmark-test:
	$(GO) test -count=1 ./benchmark

# fuzz-smoke runs every native fuzz target for ten seconds on top of its
# committed seed corpus (testdata/fuzz/<target>), one target at a time:
# go test takes one -fuzz pattern per package per run. Minimizing each
# new interesting input is capped at a second — the default minute would
# eat the whole smoke.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzRelationOps$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/reldb
	$(GO) test -run='^$$' -fuzz='^FuzzKeyCodecOrder$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/reldb
	$(GO) test -run='^$$' -fuzz='^FuzzBinaryValue$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/reldb
	$(GO) test -run='^$$' -fuzz='^FuzzRowCodec$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/reldb
	$(GO) test -run='^$$' -fuzz='^FuzzWALRecord$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/reldb
	$(GO) test -run='^$$' -fuzz='^FuzzWALFrames$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/reldb
	$(GO) test -run='^$$' -fuzz='^FuzzSnapshot$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/reldb
	$(GO) test -run='^$$' -fuzz='^FuzzAppendValue$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzInstanceFromDoc$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeInstance$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzOQLQuery$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/oql
	$(GO) test -run='^$$' -fuzz='^FuzzRQL$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/rql

# examples runs every program under examples/ end to end; each exits
# non-zero (log.Fatal) when a step it demonstrates fails. Their output
# is discarded, their errors are not.
examples:
	for d in examples/*/; do $(GO) run ./$$d > /dev/null || exit 1; done

# loc prints the non-test line count per package and in total: Go files
# under internal/, cmd/, examples/ and the root package, without
# _test.go files, blank lines and lines holding only a // comment.
loc:
	@{ ls *.go; find internal cmd examples -name '*.go'; } | grep -v '_test\.go$$' | \
	xargs awk '!/^[ \t]*(\/\/.*)?$$/ { d = FILENAME; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; n[d]++; t++ } \
		END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'

# verify is the full gate: compile everything, vet, then run the whole
# suite (including the concurrent stress tests) under the race detector,
# every benchmark once, and every CI target besides. speedup runs before
# the race and core-count suites, while the host is not still busy with
# their work.
verify: build vet fmt-check speedup race metrics-lint crash-matrix serve-smoke shard-stress cpu-sweep benchmark-test bench-smoke fuzz-smoke examples
