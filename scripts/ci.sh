#!/bin/sh
# CI entry point: formatting, vet, build, full tests, and race detection on
# the concurrency-heavy packages. Run from the repository root.
set -eu

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== examples (README's library entry points must run, not just build)"
for ex in examples/*/; do
	echo "go run ./$ex"
	go run "./$ex" > /dev/null
done

echo "== go test (shuffled)"
go test -shuffle=on ./...

echo "== go test -race, shuffled (core, filter, ged, obs, fault, server, template, qa)"
go test -race -shuffle=on ./internal/core ./internal/filter ./internal/ged ./internal/obs ./internal/fault ./internal/server ./internal/template ./internal/qa

echo "== benchmark module (bench/: vet + smoke test)"
# bench/ is its own Go module (replace simjoin => ../), so the root
# `go test ./...` never builds it: an API change here could break the
# benchmark unnoticed.
(cd bench && go vet ./... && go test ./...)

echo "== fault injection (failpoints armed end-to-end)"
# Arm failpoints through the environment and run a small join: the pipeline
# must complete, quarantine the panicking pair, and report it — not crash.
# The injected GED errors take the verdict ladder's budget paths, so every
# candidate must still land in exactly one verdict bucket: the verdicts line
# sums to the stats line's candidates (the panicking pair is quarantined
# before it becomes a candidate).
verdict_tally() {
	printf '%s\n' "$1" | awk '
		/^stats: / { match($0, /candidates=[0-9]+/); c = substr($0, RSTART + 11, RLENGTH - 11) }
		/^verdicts: / {
			n = 1
			for (i = 2; i <= NF; i++) {
				if ($i ~ /^(exact|sampled|approx|undecided)=/) { sub(/.*=/, "", $i); v += $i }
			}
		}
		END {
			if (!n || c == "" || v != c) {
				printf "verdicts sum to %d, want candidates %s\n", v, c
				exit 1
			}
		}'
}
fault_out=$(SIMJOIN_FAILPOINTS='ged.compute=error#5,core.pair=panic#1' \
	go run ./cmd/simjoin -workload er -scale 0.3 -tau 1 -alpha 0.5 -mode simj)
verdict_tally "$fault_out"

echo "== observability artifacts (explain report, event log, trace, metrics)"
# Run the deterministic CI workload fully instrumented and archive what it
# emits: the -explain cost model, the sampled pair-decision event log, the
# Chrome trace, and the metrics snapshot. The snapshot doubles as the input
# to the prune-rate drift gate below; the workload is seeded, so its prune
# rates are exactly reproducible.
ART="${CI_ARTIFACTS:-ci-artifacts}"
mkdir -p "$ART"
go run ./cmd/simjoin -workload er -scale 0.5 -tau 1 -alpha 0.5 -mode opt \
	-explain -events "$ART/events.jsonl" -events-every 10 \
	-stats-json "$ART/stats.json" -trace-out "$ART/trace.json" > "$ART/join-explain.txt"
grep -q 'per-bound cost model' "$ART/join-explain.txt"
test -s "$ART/events.jsonl"
# One name per quantity: the trace holds the join's one core.join span (no
# per-pair spans), and the snapshot carries no filter-layer counter, because
# a bound's tallies live only in the simjoin_bound_* profile.
grep -q '"name":"core.join"' "$ART/trace.json"
if grep '"filter_' "$ART/stats.json"; then
	echo "stats.json carries filter_* counters"
	exit 1
fi
# Once a pair needs a GED for a world after its first, the exact rung scores
# its remaining worlds against the relaxed graph's mapping lists instead.
# This join's two candidates get there, so the list path must have run; a
# zero means it went dark (or the counter did), and the artifacts above no
# longer show it.
relaxed_pairs=$(sed -n 's/.*"simjoin_relaxed_pairs_total": *\([0-9]*\).*/\1/p' "$ART/stats.json" | head -n 1)
if [ "${relaxed_pairs:-0}" -eq 0 ]; then
	echo "stats.json: simjoin_relaxed_pairs_total is ${relaxed_pairs:-missing}, want > 0"
	exit 1
fi
# obsdiff, the README's drift report between two snapshots, reads each
# stage's prune rate from BoundProfile; a snapshot against itself must show
# no drift.
go run ./scripts/obsdiff "$ART/stats.json" "$ART/stats.json" > "$ART/obsdiff.txt"

echo "== prune tally (the pruned-by line accounts for every pair the chain pruned)"
# Each mode runs one fixed chain ([css], [css,prob] or [css,group]); the
# tests above check every mode's answers against the brute-force oracle
# (TestJoinOracle, internal/core). This step checks the CLI's report: the
# pruned-by line (the chain profile's prunes per bound) must be printed and
# sum to the pairs the chain pruned, css-pruned + prob-pruned minus the
# index prescreen's skips. The qald join's chain runs but prunes nothing
# (the prescreens skip every pair css would prune), so its line must still
# be there, all zeros.
prune_tally() {
	printf '%s\n' "$1" | awk '
		/^stats: / {
			match($0, /css-pruned=[0-9]+/); c = substr($0, RSTART + 11, RLENGTH - 11)
			match($0, /index-skipped=[0-9]+/); s = substr($0, RSTART + 14, RLENGTH - 14)
			match($0, /prob-pruned=[0-9]+/); p = substr($0, RSTART + 12, RLENGTH - 12)
		}
		/^pruned-by:/ { n = 1; for (i = 2; i <= NF; i++) { sub(/.*=/, "", $i); b += $i } }
		END {
			if (!n || b != c + p - s) {
				printf "pruned-by sums to %d, want css-pruned %d + prob-pruned %d - index-skipped %d\n", b, c, p, s
				exit 1
			}
		}'
}
er_out=$(go run ./cmd/simjoin -workload er -scale 0.5 -tau 2 -alpha 0.3 -mode simj)
qald_out=$(go run ./cmd/simjoin -workload qald -mode simj -tau 1 -alpha 0.05)
prune_tally "$er_out"
prune_tally "$qald_out"

echo "== chaos soak (simjoind + loadgen, failpoints armed, race-built)"
# Out-of-process half of the chaos harness (the in-process half is
# TestChaosSoak under -race above): boot a race-built resident service with
# panics/errors injected at every layer, drive it with concurrent askers
# sized to force shedding and degradation, gate on the envelope's contract
# (exact tier accounting, zero transport errors, shed>0, degraded>0, client
# P99 bounded), then SIGTERM and require a clean drain with the stats
# artifact flushed.
soaktmp=$(mktemp -d)
go build -race -o "$soaktmp/simjoind" ./cmd/simjoind
go build -o "$soaktmp/loadgen" ./cmd/loadgen
SIMJOIN_FAILPOINTS='server.join=error#40,core.pair=panic#20,ged.compute=error#60' \
	"$soaktmp/simjoind" -workload er -tau 2 -alpha 0.5 \
	-addr 127.0.0.1:0 -addr-file "$soaktmp/addr.txt" \
	-max-inflight 4 -max-queue 8 -request-timeout 5s -breaker-window 64 \
	-stats-json "$ART/soak-stats.json" 2> "$ART/soak-server.log" &
soakpid=$!
for _ in $(seq 1 100); do
	[ -s "$soaktmp/addr.txt" ] && break
	sleep 0.1
done
test -s "$soaktmp/addr.txt"
"$soaktmp/loadgen" -url "http://$(cat "$soaktmp/addr.txt")" \
	-n "${SOAK_REQUESTS:-1500}" -workers 48 -timeout 15s \
	-gate-shed -gate-degrade -gate-p99 8s -json "$ART/soak-client.json"
kill -TERM "$soakpid"
wait "$soakpid"
# The flushed snapshot must record a clean drain and zero uncounted panics.
grep -q '"cleanDrain": true' "$ART/soak-stats.json"
grep -q '"server_panics_total": 0' "$ART/soak-stats.json"
# /join sweeps the request's query against the resident side through the
# index, so the index's prescreens must have skipped pairs on this
# workload; a zero means the service's joins bypass them again.
index_skipped=$(sed -n 's/.*"simjoin_index_skipped_total": *\([0-9]*\).*/\1/p' "$ART/soak-stats.json" | head -n 1)
if [ "${index_skipped:-0}" -eq 0 ]; then
	echo "soak-stats.json: simjoin_index_skipped_total is ${index_skipped:-missing}, want > 0"
	exit 1
fi
rm -rf "$soaktmp"

echo "== fuzz smoke (20s per target)"
go test -run '^$' -fuzz '^FuzzParseQuery$' -fuzztime 20s ./internal/sparql
go test -run '^$' -fuzz '^FuzzParseTriples$' -fuzztime 20s ./internal/rdf
go test -run '^$' -fuzz '^FuzzDecodeJoinRequest$' -fuzztime 20s ./internal/server
go test -run '^$' -fuzz '^FuzzDecodeAskRequest$' -fuzztime 20s ./internal/server
go test -run '^$' -fuzz '^FuzzJoinOracle$' -fuzztime 20s ./internal/core

echo "== benchmark regression gate (vs BENCH_join.json, +25% ns/op, +10% allocs/op, ±5pp prune rate)"
# bench.sh covers the join drivers (BenchmarkJoinER/TopK, the
# screening-bound JoinERScreen, the verification-bound WebQ template join
# JoinWebQ, the many-world ER join JoinERRelaxed and the smoke-size
# template workload BenchmarkJoinIndexedScaled) and the per-pair kernel
# micro-benchmarks (BenchmarkFilterChainSig, BenchmarkWorldLowerBound);
# the allocs gate keeps the zero-alloc kernels at exactly zero. The
# baseline also carries the env-gated milestone entry (measured with
# SHARD_MILESTONE set); routine CI skips it, so it passes through
# -optional. -stats replays the metrics snapshot archived above to pin the
# filter chain's per-bound prune rates
# against the baseline's prune_rates. The CLI joins through the index, so
# those rates cover only the pairs its prescreens (size window, label-overlap
# bound, counted CSS bound) let through to the chain; the prescreened pairs
# never reach a bound. The counted bound rules out nearly every pair the
# chain's exact css would, so css's rate is low by design (1 prune in 13
# evaluations here): pruning moved into the sweep, and the stats line's
# css-pruned total is what shows it did not weaken.
benchtmp=$(mktemp -d)
trap 'rm -rf "$benchtmp"' EXIT
OUT="$benchtmp/bench.json" COUNT=3 make bench-join >/dev/null
go run ./scripts/benchgate -baseline BENCH_join.json -current "$benchtmp/bench.json" \
	-max-regress 25 -max-allocs-regress 10 -stats "$ART/stats.json" -max-prune-drift 5 \
	-optional '^BenchmarkJoinIndexedScaledMilestone$'

echo "CI passed"
