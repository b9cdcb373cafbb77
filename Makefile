# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build fmt-check vet test race bench bench-ingest bench-assign bench-query bench-build bench-build-smoke bench-serve loadgen-smoke repro repro-check fuzz fuzz-smoke docs-check integration clean

all: build fmt-check vet test

build:
	$(GO) build ./...

# Every tracked Go file must already be gofmt-formatted; lists the offenders.
fmt-check:
	@out="$$(gofmt -l $$(git ls-files '*.go'))"; test -z "$$out" || { echo "not gofmt-formatted:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Per-package micro-benchmarks. The paper's tables and figures are not
# benchmarks: `make repro` prints them, `make repro-check` pins them.
bench:
	$(GO) test -bench=. -benchmem ./...

# Every table, figure and ablation of the paper's evaluation, as text
# (one of them: `go run ./cmd/payg-repro -exp <name>`).
repro:
	$(GO) run ./cmd/payg-repro -exp all

# The reproduction, pinned: runs every experiment (~25 s) and diffs the
# output against docs/full-run.txt with durations masked, then holds the
# blocked build (similarity floor) to its fidelity bars against the exact
# build on six 4k–6k corpora (a few seconds). Gated like `make integration` so
# plain `make test` stays quick.
repro-check:
	PAYG_REPRO=1 $(GO) test ./cmd/payg-repro -run TestReproMatchesFullRun -count=1 -timeout 600s
	PAYG_REPRO=1 $(GO) test ./payg -run TestBlockedBuildFidelity -count=1 -v

# Ingest-vs-rebuild cost comparison (writes BENCH_ingest.json).
bench-ingest:
	$(GO) test ./payg -run TestIngestBenchArtifact -bench-artifact=true

# Per-arrival assignment: scoring on the serving space (the row of its
# incremental extension) vs a full rebuild at n = 300 and 1000 (writes
# BENCH_assign.json).
bench-assign:
	$(GO) test ./internal/ingest -run TestAssignBenchArtifact -bench-assign-artifact=true

# Repeated-query classification: generation-keyed result cache vs uncached
# Classify, plus the parallel batch path (writes BENCH_query.json).
bench-query:
	$(GO) test ./payg -run TestQueryBenchArtifact -bench-query-artifact=true

# Offline-build scaling sweep: blocked (similarity floor + sparse HAC) vs exact
# all-pairs at n = {2k, 10k, 50k, 100k} (writes BENCH_build.json).
# The exact arm stops at 10k; expect the full sweep to run for a while.
bench-build:
	PAYG_BENCH_BUILD_FULL=1 $(GO) test ./payg -run TestBuildBenchArtifact -bench-build-artifact=true -timeout 7200s

# CI smoke: smallest size only, artifact discarded outside the repo.
bench-build-smoke:
	$(GO) test ./payg -run TestBuildBenchArtifact -bench-build-artifact=true -bench-build-out=/tmp/BENCH_build.json -timeout 600s

# Serving benchmark: drive a real payg-server with the closed-loop load
# generator through the three headline chaos scenarios — steady state,
# recluster storm, total source blackout (writes BENCH_serve.json).
bench-serve:
	PAYG_INTEGRATION=1 $(GO) test ./internal/integration -run TestServeBenchArtifact -bench-serve-artifact=true -count=1 -timeout 1200s -v

# CI smoke for the load generator: a few seconds of closed-loop traffic
# against an in-process server, plus the report/percentile unit tests.
loadgen-smoke:
	$(GO) test ./internal/loadgen -count=1 -loadgen-secs=5
	$(GO) test ./internal/obs -count=1 -race -run 'TestReservoir|TestConcurrent'

# Short fuzz pass over every hand-written parser, the threshold LCS the
# matcher's losslessness rests on, and the readers of bytes from disk or a
# peer: the snapshot decoder, the write-ahead log's recovery scan and the
# replay of one WAL record. FUZZTIME is overridable; CI's fuzz-smoke job uses
# 10s per target. FuzzLoadSnapshot's inputs are whole snapshots and every execution
# a Load, so minimising one interesting input would eat the default 60s
# budget — more than the whole smoke run; 1s keeps the time on new inputs.
FUZZTIME ?= 30s

fuzz:
	$(GO) test -fuzz=FuzzParseLine -fuzztime=$(FUZZTIME) ./internal/schema
	$(GO) test -fuzz=FuzzReadJSON -fuzztime=$(FUZZTIME) ./internal/schema
	$(GO) test -fuzz=FuzzTokenizeHTML -fuzztime=$(FUZZTIME) ./internal/extract
	$(GO) test -fuzz=FuzzParseTriple -fuzztime=$(FUZZTIME) ./internal/extract
	$(GO) test -fuzz=FuzzSpreadsheet -fuzztime=$(FUZZTIME) ./internal/extract
	$(GO) test -fuzz=FuzzFromAttribute -fuzztime=$(FUZZTIME) ./internal/terms
	$(GO) test -fuzz=FuzzLCSAtLeast -fuzztime=$(FUZZTIME) ./internal/strsim
	$(GO) test -fuzz=FuzzLoadSnapshot -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./payg
	$(GO) test -fuzz=FuzzWALOpen -fuzztime=$(FUZZTIME) ./internal/wal
	$(GO) test -fuzz=FuzzReplayRecord -fuzztime=$(FUZZTIME) ./payg

fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=10s

# Documentation verification: diff docs/METRICS.md against the live
# metric registry and check every relative markdown link resolves.
docs-check:
	$(GO) test ./internal/docscheck -count=1

# End-to-end durability and chaos tests against the real payg-server
# binary: SIGKILL mid-stream, restart, assert recovery; leader/follower
# convergence; SLO-gated load scenarios (recluster storm, source
# blackout, leader crash under load). Gated so plain `make test` stays
# hermetic.
integration:
	PAYG_INTEGRATION=1 $(GO) test ./internal/integration -count=1 -timeout 600s

clean:
	$(GO) clean ./...
