GO ?= go

.PHONY: all build test race vet fmt fuzz ci bench bench-join clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detect the concurrency-heavy packages: the join worker pools, the
# pooled/scratch-reusing filter and GED kernels they call, the
# observability instruments they write through, and the template matcher
# that concurrent /ask requests share.
race:
	$(GO) test -race ./internal/core ./internal/filter ./internal/ged ./internal/obs ./internal/fault ./internal/server ./internal/template ./internal/qa

# Coverage-guided smoke on each fuzz target (seed corpora live under
# internal/*/testdata/fuzz; crashers found in CI land there too).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseQuery$$' -fuzztime 20s ./internal/sparql
	$(GO) test -run '^$$' -fuzz '^FuzzParseTriples$$' -fuzztime 20s ./internal/rdf
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeJoinRequest$$' -fuzztime 20s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeAskRequest$$' -fuzztime 20s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzJoinOracle$$' -fuzztime 20s ./internal/core

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

ci:
	./scripts/ci.sh

# Full suite, quick pass.
bench:
	$(GO) test -bench . -benchtime 2x -run '^$$' .

# Join hot-path benchmarks, averaged over several runs, emitted as
# machine-readable BENCH_join.json (see scripts/bench.sh for knobs; set
# SHARD_MILESTONE to also measure the milestone workload fraction).
bench-join:
	./scripts/bench.sh

clean:
	$(GO) clean ./...
