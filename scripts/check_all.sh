#!/usr/bin/env bash
# The full pre-merge gauntlet: the default build's test suite, a smoke run
# of the bench binaries, the serving benchmark's build and self-tests
# (perfbench/), then the AddressSanitizer, ThreadSanitizer, and UBSan
# presets (each in its own build tree, see check_asan.sh / check_tsan.sh /
# check_ubsan.sh for scope notes — the TSan run excludes the documented
# hogwild benign races), then the chaos sweep: the randomized
# fault-injection harness across five distinct seeds under both the
# default and TSan builds.
# Usage: scripts/check_all.sh [extra ctest args for the default run...]
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> default build + tests"
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)" "$@"

echo "==> benches: the exact/fused/ANN top-K rows run, bench flags fail closed"
# One short run keeps the exact, fused and ANN top-K rows building and
# running; scripts/run_benches.sh measures them properly.
./build/bench/micro_benchmarks --benchmark_filter='BM_TopKMixture' \
    --benchmark_min_time=0.01
# A misspelt flag or a malformed number must stop a table bench with the
# usage (exit 2), not run the multi-minute default world.
for args in "--product 120" "--products abc"; do
  status=0
  # shellcheck disable=SC2086  # word-split the flag and its value
  ./build/bench/table1_kg_stats ${args} 2>/dev/null || status=$?
  if [ "${status}" -ne 2 ]; then
    echo "table1_kg_stats ${args}: exit ${status}, want 2"
    exit 1
  fi
done

echo "==> perfbench: the serving benchmark builds against the current src/"
# perfbench/ compiles src/ through its own CMake project (without the
# fatal-warnings setting); a serving refactor must keep it building and
# its statistics tests passing without touching perfbench/.
cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release
cmake --build build-perfbench -j"$(nproc)" --target perfbench perfbench_tests
./build-perfbench/perfbench_tests
# One short traced run per workload. Each checks its answers against the
# source of truth (sharded_neighbors: every sampled engine answer equals
# ShardedStore::Match, so the on-disk format is exercised end to end;
# live_rw_zipf: answers against the serving snapshot; net_mixed_open and
# topk_uncached: byte identity). The leg fails unless every RESULT line
# reports correct with no failed operations.
mkdir -p build-perfbench/run
for workload in net_mixed_open topk_uncached live_rw_zipf sharded_neighbors; do
  ./build-perfbench/perfbench --workload "${workload}" --seed 1 \
      --seconds 2 --trace 1 --work-dir build-perfbench/run |
    python3 -c '
import json, sys
w = sys.argv[1]
lines = [l for l in sys.stdin if l.startswith("RESULT ")]
if not lines:
    sys.exit("perfbench %s: no RESULT line" % w)
r = json.loads(lines[-1][len("RESULT "):])
if r.get("correct") is not True or r.get("failed") != 0:
    sys.exit("perfbench %s: correct=%s failed=%s"
             % (w, r.get("correct"), r.get("failed")))
print("perfbench %s: correct, 0 failed of %s" % (w, r.get("attempted")))
' "${workload}"
done

echo "==> AddressSanitizer"
scripts/check_asan.sh

echo "==> ThreadSanitizer"
scripts/check_tsan.sh

echo "==> UndefinedBehaviorSanitizer"
scripts/check_ubsan.sh

echo "==> sharded-store leg: snapshot + OBGSNAP3 suites, default + ASan"
# The out-of-core path gets an explicit pass on top of the full-suite runs
# above: the container format and parity/corruption sweeps under the default
# build and ASan (mmap'd reads under UBSan are in check_ubsan.sh's filter).
ctest --test-dir build --output-on-failure -R '^(snapshot_test|sharded_store_test)$'
ctest --test-dir build-asan --output-on-failure -R '^(snapshot_test|sharded_store_test)$'

echo "==> chaos sweep: 5 seeds, default + TSan"
for seed in 101 202 303 404 505; do
  echo "--> chaos seed ${seed} (default)"
  OPENBG_CHAOS_SEED="${seed}" ./build/tests/chaos_test
  echo "--> chaos seed ${seed} (tsan)"
  OPENBG_CHAOS_SEED="${seed}" ./build-tsan/tests/chaos_test
done

echo "==> ANN recall gate (recall@10 >= 0.99 at the pruned operating point)"
./build/tests/ann_test --gtest_filter='AnnRecallGate.*'

echo "==> net smoke: example_server --smoke under ASan and TSan"
# The socket front-end's end-to-end exercise on an ephemeral port: three
# pipelined tenants (one rate-limited so shedding happens), a mid-stream
# canary mirror -> promote, graceful stop. Exit 0 requires every request
# id answered exactly once with whole frames; the sanitizers must stay
# silent across the epoll loop, the cross-thread flush queues, and the
# canary's publish seam.
./build-asan/examples/example_server --smoke
./build-tsan/examples/example_server --smoke

echo "==> all checks passed"
