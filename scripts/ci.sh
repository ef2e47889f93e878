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

echo "== go test (shuffled)"
go test -shuffle=on ./...

echo "== go test -race, shuffled (core, filter, ged, obs, fault, server)"
go test -race -shuffle=on ./internal/core ./internal/filter ./internal/ged ./internal/obs ./internal/fault ./internal/server

echo "== benchmark module (bench/: vet + smoke test)"
# bench/ is its own Go module (replace simjoin => ../), so the root
# `go test ./...` never builds it: an API change here could break the
# benchmark unnoticed.
(cd bench && go vet ./... && go test ./...)

echo "== fault injection (failpoints armed end-to-end)"
# Arm failpoints through the environment and run a small join: the pipeline
# must complete, quarantine the panicking pair, and report it — not crash.
SIMJOIN_FAILPOINTS='ged.compute=error#5,core.pair=panic#1' \
	go run ./cmd/simjoin -workload er -scale 0.3 -tau 1 -alpha 0.5 -mode simj >/dev/null

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
grep -q 'effective-cost order' "$ART/join-explain.txt"
test -s "$ART/events.jsonl"

echo "== chain-order equivalence (a reordered chain must not change the join)"
# The race matrix above already pins chain-order invariance
# (TestAdaptiveChainMatchesStatic, and TestJoinOracle's shuffled chain); this
# drives the same contract end-to-end through the CLI on the deterministic
# workload: the mode's chain reversed (-filters prob,css) must report exactly
# the matches the default chain reports, and the same pair total. Result lines
# are rank-stripped and sorted so only the match set and its SimP/ged values
# are compared.
static_out=$(go run ./cmd/simjoin -workload er -scale 0.5 -tau 2 -alpha 0.3 -mode simj \
	-show 100000)
reordered_out=$(go run ./cmd/simjoin -workload er -scale 0.5 -tau 2 -alpha 0.3 -mode simj \
	-filters prob,css -show 100000)
norm_matches() { printf '%s\n' "$1" | sed -n 's/^\[[0-9]*\] //p' | sort; }
pair_total() { printf '%s\n' "$1" | sed -n 's/^pairs: \([0-9]*\) .*/\1/p'; }
# Guard against the comparison going vacuous: this workload must keep
# producing matches, or the step compares two empty sets.
test -n "$(norm_matches "$static_out")"
if [ "$(norm_matches "$static_out")" != "$(norm_matches "$reordered_out")" ]; then
	echo "reordering the chain changed the join's matches:"
	norm_matches "$static_out" > "$ART/equiv-static.txt"
	norm_matches "$reordered_out" > "$ART/equiv-reordered.txt"
	diff -u "$ART/equiv-static.txt" "$ART/equiv-reordered.txt" || true
	exit 1
fi
test -n "$(pair_total "$static_out")"
test "$(pair_total "$static_out")" = "$(pair_total "$reordered_out")"
# One prune tally: the pruned-by line (the chain profile's prunes per bound)
# must sum to the pairs the chain pruned, css-pruned + prob-pruned minus the
# index prescreen's skips, in either order.
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
prune_tally "$static_out"
prune_tally "$reordered_out"

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
rm -rf "$soaktmp"

echo "== fuzz smoke (20s per target)"
go test -run '^$' -fuzz '^FuzzParseQuery$' -fuzztime 20s ./internal/sparql
go test -run '^$' -fuzz '^FuzzParseTriples$' -fuzztime 20s ./internal/rdf
go test -run '^$' -fuzz '^FuzzDecodeJoinRequest$' -fuzztime 20s ./internal/server
go test -run '^$' -fuzz '^FuzzDecodeAskRequest$' -fuzztime 20s ./internal/server
go test -run '^$' -fuzz '^FuzzJoinOracle$' -fuzztime 20s ./internal/core

echo "== benchmark regression gate (vs BENCH_join.json, +25% ns/op, +10% allocs/op, ±5pp prune rate)"
# bench.sh covers the join drivers (BenchmarkJoinER/TopK, the
# screening-bound JoinERScreen and the smoke-size template workload
# BenchmarkJoinIndexedScaled) and the per-pair kernel micro-benchmarks
# (BenchmarkFilterChainSig, BenchmarkWorldLowerBound); the allocs gate keeps
# the zero-alloc kernels at exactly zero. The baseline also carries the
# env-gated milestone entry (measured with SHARD_MILESTONE set); routine CI
# skips it, so it passes through -optional. -stats replays the metrics
# snapshot archived above to pin the filter chain's per-bound prune rates
# against the baseline's prune_rates. The CLI joins through the index, so
# those rates cover only the pairs its size/label prescreens let through to
# the chain (the prescreened pairs never reach a bound).
benchtmp=$(mktemp -d)
trap 'rm -rf "$benchtmp"' EXIT
OUT="$benchtmp/bench.json" COUNT=3 make bench-join >/dev/null
go run ./scripts/benchgate -baseline BENCH_join.json -current "$benchtmp/bench.json" \
	-max-regress 25 -max-allocs-regress 10 -stats "$ART/stats.json" -max-prune-drift 5 \
	-optional '^BenchmarkJoinIndexedScaledMilestone$'

echo "CI passed"
