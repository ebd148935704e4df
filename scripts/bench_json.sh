#!/usr/bin/env bash
# Runs the trajectory benches with --benchmark_format=json and folds the
# outputs into machine-checkable JSON at the repo root
# (bench/emit_trajectory.cc does the folding; the env block records nproc +
# git sha, and a machine-readable caveat when the host has fewer than 8
# CPUs):
#   * BENCH_pr6.json — the scaling rows (labels; objtable resolve under the
#     shared lock and get_len on the lock-free published index);
#   * BENCH_pr10.json — the PR 10 tracing-overhead rows: the warm lock-free
#     batch and the dirty-1000 checkpoint, once from the normal build and
#     once from a -DHISTAR_TRACE=0 build (rows tagged "@notrace"), checked
#     by scripts/check_bench_pr10.sh. Skipped with a note if the notrace
#     build dir is absent.
#
# Usage: scripts/bench_json.sh [build-dir] [pr6-out-file] [pr10-out-file] \
#                              [notrace-build-dir]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
OUT="${2:-$ROOT/BENCH_pr6.json}"
OUT10="${3:-$ROOT/BENCH_pr10.json}"
NOTRACE="${4:-$ROOT/build-notrace}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

for bin in bench_ablation_labels bench_ablation_objtable bench_fig12_ipc \
           bench_fig12_lfs_small bench_emit_trajectory; do
  if [ ! -x "$BUILD/$bin" ]; then
    echo "bench_json.sh: $BUILD/$bin missing — build with google-benchmark available" >&2
    exit 1
  fi
done

# Keep runs short: these rows feed a trajectory, not a publication. The
# benchmark library still repeats each row enough for a stable mean.
MIN_TIME="${BENCH_MIN_TIME:-0.05}"

"$BUILD/bench_ablation_labels" \
  --benchmark_filter='BM_RegistryLeqContended' \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_format=json > "$TMP/labels.json"

"$BUILD/bench_ablation_objtable" \
  --benchmark_filter='BM_ObjTableResolveContended|BM_ObjTableGetLenContended' \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_format=json > "$TMP/objtable.json"

SHA="$(git -C "$ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)"
NPROC="$(nproc 2>/dev/null || echo 0)"

"$BUILD/bench_emit_trajectory" \
  --out "$OUT" --pr 6 --sha "$SHA" --nproc "$NPROC" \
  "$TMP/labels.json" "$TMP/objtable.json"

# PR 10 tracing-overhead rows: the same two shapes from two trees. The warm
# lock-free batch is the recorder's worst case (the event + histogram write
# is the only kernel work besides the reads); the dirty-1000 checkpoint
# covers the store-op recording path. The notrace tree is configured with
# -DHISTAR_TRACE=0 so every Record* call compiles out.
if [ -x "$NOTRACE/bench_fig12_ipc" ] && [ -x "$NOTRACE/bench_fig12_lfs_small" ]; then
  "$BUILD/bench_fig12_ipc" \
    --benchmark_filter='BM_HiStarLockFreeBatchGet' \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_format=json > "$TMP/lockfree.json"
  "$NOTRACE/bench_fig12_ipc" \
    --benchmark_filter='BM_HiStarLockFreeBatchGet' \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_format=json > "$TMP/lockfree_notrace.json"
  "$BUILD/bench_fig12_lfs_small" \
    --benchmark_filter='BM_EngineCheckpointDirty' \
    --benchmark_format=json > "$TMP/ckpt.json"
  "$NOTRACE/bench_fig12_lfs_small" \
    --benchmark_filter='BM_EngineCheckpointDirty' \
    --benchmark_format=json > "$TMP/ckpt_notrace.json"

  "$BUILD/bench_emit_trajectory" \
    --out "$OUT10" --pr 10 --sha "$SHA" --nproc "$NPROC" \
    "$TMP/lockfree.json" "$TMP/ckpt.json" \
    --tag notrace "$TMP/lockfree_notrace.json" "$TMP/ckpt_notrace.json"
else
  echo "bench_json.sh: $NOTRACE missing bench binaries — skipping $OUT10" >&2
  echo "  (configure it with: cmake -B build-notrace -S . -DCMAKE_CXX_FLAGS=-DHISTAR_TRACE=0)" >&2
fi
