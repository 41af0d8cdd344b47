#!/usr/bin/env bash
# Tier-1 verification: the ship audit and lint (scripts/lint.sh), the full
# build and test suite, then the whole suite again under ThreadSanitizer
# and under AddressSanitizer+UBSan.
#
# The TSan leg pins the engine/workspace split (SharedOperator and
# SharedEngine drive one immutable engine from several threads, so any
# mutation hiding behind the const facade is reported as a data race), the
# service and cluster layers (in-process fleets behind a live router,
# pipelined clients, backend death mid-pipeline, stop() racing both
# daemons' serve loops) and the seeded Chaos storms. It runs serially:
# the race detector's slowdown would push the socket tests past their
# deadlines under -j.
#
# The ASan+UBSan leg catches lifetime and UB bugs: the batch-evaluation
# path moves candidate scratch across worker threads, and the cluster and
# chaos suites open, hand over and close sockets and session threads on
# every request path.
#
#   scripts/tier1.sh              # all stages
#   SKIP_TSAN=1 scripts/tier1.sh  # skip the TSan leg
#   SKIP_ASAN=1 scripts/tier1.sh  # skip the ASan+UBSan leg
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

scripts/lint.sh

cmake -B build -S .
cmake --build build -j"$JOBS"
ctest --test-dir build --output-on-failure -j"$JOBS"

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  cmake -B build-tsan -S . -DTECFAN_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j"$JOBS"
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan --output-on-failure
fi

if [[ "${SKIP_ASAN:-0}" != "1" ]]; then
  cmake -B build-asan -S . -DTECFAN_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j"$JOBS"
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-asan --output-on-failure -j"$JOBS"
fi
