#!/usr/bin/env sh
# bench_compare.sh — diff two BENCH_<sha>.json baselines and fail on a
# >20% regression in placement-stage metrics.
#
# The placement benchmarks (BenchmarkPlaceShrink, internal/csp
# BenchmarkSolve*) report solver-steps, shrink-probes, steps-per-probe,
# and place-ns as custom metrics, and BenchmarkEditReplay reports the
# incremental-compile series (hint-cache-hit-rate, steps-per-edit),
# and BenchmarkExplore reports the design-space sweep series
# (variants-per-sec, stage-skips-per-variant, explore-ns-per-variant);
# this compares those plus ns_per_op, B/op, and allocs/op against the
# base baseline via cmd/reticle-benchcompare. Higher-is-better metrics
# (hint-hit-rate, hint-cache-hit-rate, probes-skipped) are reported but
# never fail the check; steps-per-edit is gated, so the adoption path
# cannot silently start re-solving; explore-ns-per-variant is gated, so
# memoized sweeps cannot silently start recompiling stages; and
# allocs/op is gated, so the hot paths cannot silently start churning
# the GC. BenchmarkServeCached, BenchmarkServeBatchCached,
# BenchmarkServeCold and BenchmarkAblationSelector are compared too, so
# an artifact-sized allocation on the hit path, a parser or printer that
# starts allocating per token on the cold path, or a covering DP per
# tree instead of per shape shows up in the blocking count gate.
#
# An optional fourth argument is a regexp of metric names (passed as
# reticle-benchcompare -metrics): CI runs the comparison twice, once over
# the machine-independent counts (blocking) and once over the timings
# (advisory).
#
# Usage: scripts/bench_compare.sh base.json head.json [threshold] [metrics-regexp]
#
# Exit: 0 no regression, 1 regression or missing base baseline (a
# repo-committed BENCH_<sha>.json always exists, so an absent base
# means the bench job is miswired -- fail loudly, never skip), 2 usage.
set -eu

cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
  echo "usage: scripts/bench_compare.sh base.json head.json [threshold] [metrics-regexp]" >&2
  exit 2
fi
base="$1"
head="$2"
threshold="${3:-0.20}"
metrics="${4:-}"

if [ ! -f "$base" ]; then
  echo "bench_compare: base baseline $base not found (expected a committed or downloaded BENCH_*.json); failing" >&2
  exit 1
fi
if [ ! -f "$head" ]; then
  echo "bench_compare: head baseline $head not found" >&2
  exit 2
fi

go run ./cmd/reticle-benchcompare -threshold "$threshold" -metrics "$metrics" "$base" "$head"
