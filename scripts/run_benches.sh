#!/usr/bin/env bash
# The one producer of the repo's performance numbers. It writes:
#   BENCH_kernels.json — google-benchmark aggregates (mean/median/stddev/cv
#     over repeated runs) of the scalar/dispatched kernel pairs (float and
#     int8 scans), the evaluator's per-triple/query-batched pair and the
#     uncached top-10 exact/fused/IVF rows on a 40000 x 64 mixture, so the
#     speedups DESIGN.md quotes can be re-derived from the JSON alone;
#   BENCH_train.json — trainer throughput (triples/sec) at 1/2/4 threads in
#     both hogwild and deterministic modes, same aggregates;
#   BENCH_perfbench.jsonl — the serving benchmark (perfbench/): each
#     BENCHMARK.json workload for seeds 1-10 at its run_seconds, one record
#     per run with the host's provenance, then compare.py's summary of it.
#     Compare two such files with `python3 perfbench/compare.py A B`.
# Usage: scripts/run_benches.sh [extra google-benchmark args...]
# BUILD_DIR, OUT, TRAIN_OUT and PERF_OUT override the build tree and the
# three output paths.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
OUT="${OUT:-BENCH_kernels.json}"
TRAIN_OUT="${TRAIN_OUT:-BENCH_train.json}"
PERF_OUT="${PERF_OUT:-BENCH_perfbench.jsonl}"

# Enough repetitions for a median and a spread per row, few enough that
# the two micro-benchmark passes take a few minutes.
MICRO_REPS=5

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j"$(nproc)" --target micro_benchmarks

micro() {
  "$BUILD_DIR"/bench/micro_benchmarks \
    --benchmark_filter="$1" \
    --benchmark_repetitions="$MICRO_REPS" \
    --benchmark_report_aggregates_only=true \
    --benchmark_out="$2" \
    --benchmark_out_format=json \
    "${@:3}"
  echo "Wrote $2"
}

micro 'BM_Gemm|BM_DotKernel|BM_L1DistanceKernel|BM_ScoreTails|BM_Scan|BM_FilteredEvaluation|BM_TopKMixture' \
  "$OUT" "$@"
micro 'BM_Train' "$TRAIN_OUT" "$@"

# The workload list and run length come from BENCHMARK.json, so there is
# no second list to drift. Ten seeds is compare.py's floor for a verdict.
read -r RUN_SECONDS WORKLOADS < <(python3 -c '
import json
spec = json.load(open("BENCHMARK.json"))
print(spec["run_seconds"], " ".join(w["name"] for w in spec["workloads"]))')

: > "$PERF_OUT"
for workload in $WORKLOADS; do
  for seed in 1 2 3 4 5 6 7 8 9 10; do
    result=$(python3 perfbench/run.py --workload "$workload" --seed "$seed" \
      --seconds "$RUN_SECONDS" --trace 0 --record "$PERF_OUT" | tail -n 1)
    echo "perfbench $workload seed $seed: $result"
    # A run that answered wrongly or failed an operation stops the script.
    python3 -c 'import json, sys; r = json.loads(sys.argv[1])
sys.exit(r["correct"] is not True or r["failed"] != 0)' "$result"
  done
done
echo "Wrote $PERF_OUT"

# compare.py exits 1 when an end-to-end spread exceeds its bound. The runs
# are still correct and recorded, so say so rather than fail the script.
python3 perfbench/compare.py "$PERF_OUT" ||
  echo "A spread is TOO WIDE above: quote those metrics as unresolved."
