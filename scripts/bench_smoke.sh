#!/usr/bin/env bash
# Smoke-scale benchmark run: every scenario at --smoke parameters, one
# JSON file out.  Used by the CI smoke-bench job and for refreshing the
# committed baseline (bench/baselines/BENCH_smoke.json).  --all includes
# the shard-layer scenarios (shard_sweep, read_burst and rebalance are
# regression-gated alongside the figure scenarios; shard_hotspot stays
# informational).
#
#   scripts/bench_smoke.sh [OUT.json]       # default: BENCH_smoke.json
#
# Environment:
#   BUILD_DIR        build tree to use/create          (default: build)
#   BENCH_SCENARIOS  comma-separated subset to run     (default: --all)
set -euo pipefail

cd "$(dirname "$0")/.."

OUT="${1:-BENCH_smoke.json}"
BUILD_DIR="${BUILD_DIR:-build}"

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j --target cbat_bench

SELECT=(--all)
if [[ -n "${BENCH_SCENARIOS:-}" ]]; then
  SELECT=(--scenario "$BENCH_SCENARIOS")
fi

"$BUILD_DIR"/cbat_bench "${SELECT[@]}" --smoke --json "$OUT"
python3 scripts/compare_bench.py --check "$OUT"
echo "bench_smoke: wrote $OUT"
