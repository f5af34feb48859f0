#!/usr/bin/env bash
# Configure, build, and run the serving + RDF suites under
# UndefinedBehaviorSanitizer in a dedicated build tree.
#
# Scope note: the default filter covers the suites on the chaos-hardened
# serving path — the RDF store/snapshot/live-update layer, the mmap-backed
# sharded store (pointer arithmetic over raw mapped bytes), and the serving
# engine (including the randomized fault sweep), the OBGWIRE1 socket
# front-end's frame and payload decoders, the canary controller, the
# SIMD kernels with the int8/IVF scans built on them (the blocked L1 scan
# walks raw row pointers), and the KGE models with the top-K prefilter's
# uint8 quantizer (float-to-int conversions of NaN, inf and out-of-range
# values) and the checkpoint round trip — where the failure-handling,
# decode, kernel and conversion code does the kind of pointer/size
# arithmetic UBSan is good at catching.
# Pass your own ctest args to widen it.
# Usage: scripts/check_ubsan.sh [extra ctest args...]
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=Release -DOPENBG_SANITIZE=undefined
cmake --build build-ubsan -j"$(nproc)"

export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
if [ "$#" -gt 0 ]; then
  ctest --test-dir build-ubsan --output-on-failure -j"$(nproc)" "$@"
else
  ctest --test-dir build-ubsan --output-on-failure -j"$(nproc)" \
    -R '^(rdf_test|live_graph_test|snapshot_test|sharded_store_test|serve_test|chaos_test|util_test|net_test|canary_test|simd_test|ann_test|kge_test)$'
fi
