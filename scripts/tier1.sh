#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, then the shared-engine,
# service-layer, and cluster tests again under ThreadSanitizer. The TSan leg
# is what pins the engine/workspace split (SharedOperator and SharedEngine
# drive one immutable engine from several threads, so any mutation hiding
# behind the const facade is reported as a data race) and the cluster smoke
# leg (ClusterSmoke runs a 2-backend in-process fleet behind a live
# router: routed hit/miss correctness, hedging, and failover on backend
# death; EventLoop/RouterPipeline/DataPlaneEquivalence drive the router's
# data plane from concurrent pipelined clients, backend death
# mid-pipeline included; HealthMonitor probes real and scripted backends
# with one dial each; ServerLifecycle and RouterLifecycle race stop()
# against both daemons' serve loops).
# The Chaos suite also runs under TSan: seeded fault-injection storms
# (refusals, blackholes, mid-line disconnects, short writes, corrupted and
# truncated replies, latency spikes with hedging, fully sampled traced
# storms) through a proxied router+fleet, asserting the six storm
# invariants from src/testing/chaos_fleet.h under the race detector.
#
# The ASan+UBSan leg re-runs the control/planning/serving suites (the
# batch-evaluation path moves candidate scratch across worker threads, the
# classic place for lifetime bugs that a plain build never trips) and the
# cluster and chaos suites, which open, hand over and close sockets and
# session threads on every request path.
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
  cmake --build build-tsan -j"$JOBS" \
    --target linalg_test sim_test service_test util_test cluster_test \
    chaos_test
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan --output-on-failure \
    -R 'SharedOperator|SharedEngine|SharedControlEngine|Protocol|ResultCache|TaskQueue|WorkerPool|Server|BackendEquivalence|Metrics|ShardMap|HealthMonitor|ClusterSmoke|EventLoop|RouterPipeline|RouterLifecycle|DataPlaneEquivalence|LineReader|WriteQueue|FaultInjector|Chaos|Trace'
fi

if [[ "${SKIP_ASAN:-0}" != "1" ]]; then
  cmake -B build-asan -S . -DTECFAN_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j"$JOBS" \
    --target core_test sim_test service_test policy_equivalence_test \
    util_test cluster_test chaos_test
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-asan --output-on-failure -j"$JOBS" \
    -R 'ControlEngine|ChipPlanningModel|PolicyEquivalence|TecFan|Oracle|Oftec|Reactive|DynamicFan|Protocol|Server|Sweep|LineReader|WriteQueue|FaultInjector|Trace|Metrics|ClusterSmoke|RouterPipeline|RouterLifecycle|HealthMonitor|EventLoop|Chaos'
fi
