#!/bin/sh
# Benchmark the join hot paths and emit a machine-readable summary.
#
# Runs the join suite (BenchmarkJoinER, BenchmarkJoinIndexedER,
# BenchmarkJoinTopK, the screening-bound BenchmarkJoinERScreen and
# BenchmarkJoinIndexedERScreen, and the template-workload
# BenchmarkJoinIndexedScaled plus its milestone twin) and the per-pair kernel
# micro-benchmarks (BenchmarkFilterChainSig, BenchmarkWorldLowerBound) with
# -benchmem, averages the repetitions, and writes
# BENCH_join.json in the v2 schema: {"benchmarks": {name: {ns_per_op,
# allocs_per_op, bytes_per_op, samples}}}. The raw `go test` output is echoed
# so regressions are visible in logs too.
#
# Note: refreshing the baseline this way drops its prune_rates section; re-bake
# it with `go run ./scripts/benchgate -update-prune -stats <stats.json>`.
#
# BenchmarkJoinIndexedScaledMilestone runs only when SHARD_MILESTONE names a
# milestone fraction (the committed baseline was measured at 0.02); CI gates
# without it, passing the entry through benchgate's -optional.
#
# Environment overrides:
#   COUNT            repetitions per benchmark (default 5)
#   PATTERN          benchmark regexp (default covers the suite above)
#   OUT              output JSON path (default BENCH_join.json)
#   SHARD_MILESTONE  milestone fraction in (0, 1]; empty skips the milestone
set -eu

COUNT="${COUNT:-5}"
PATTERN="${PATTERN:-^Benchmark(Join(ER|IndexedER|TopK|ERScreen|IndexedERScreen|IndexedScaled|IndexedScaledMilestone)|FilterChainSig|WorldLowerBound)\$}"
OUT="${OUT:-BENCH_join.json}"

raw=$(SHARD_MILESTONE="${SHARD_MILESTONE:-}" go test -run '^$' -bench "$PATTERN" -benchmem -count "$COUNT" -timeout 2h .)
echo "$raw"

echo "$raw" | awk -v out="$OUT" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name) # strip the GOMAXPROCS suffix
	ns[name] += $3
	for (i = 4; i <= NF; i++) {
		if ($(i) == "B/op")      bytes[name]  += $(i - 1)
		if ($(i) == "allocs/op") allocs[name] += $(i - 1)
	}
	n[name]++
}
END {
	printf "{\n  \"benchmarks\": {\n" > out
	count = 0
	for (name in n) count++
	i = 0
	# Deterministic key order via a simple insertion sort.
	for (name in n) keys[i++] = name
	for (a = 1; a < i; a++) {
		for (b = a; b > 0 && keys[b] < keys[b-1]; b--) {
			tmp = keys[b]; keys[b] = keys[b-1]; keys[b-1] = tmp
		}
	}
	for (a = 0; a < i; a++) {
		name = keys[a]
		printf "    \"%s\": {\"ns_per_op\": %.0f, \"bytes_per_op\": %.0f, \"allocs_per_op\": %.0f, \"samples\": %d}%s\n", \
			name, ns[name] / n[name], bytes[name] / n[name], allocs[name] / n[name], n[name], \
			(a < i - 1) ? "," : "" > out
	}
	printf "  }\n}\n" > out
}
'
echo "wrote $OUT"
