#!/usr/bin/env bash
# Refresh the committed benchmark numbers from a Release build.
#
#   BENCH_solver.json  — dense vs RCM-permuted-banded backend comparison
#                        (engine construction, cold-miss predict, serving
#                        miss equilibrium, predict_batch, transient step)
#   BENCH_policy.json  — control-layer throughput over the shared
#                        ControlEngine: per-policy decisions/s on the
#                        4-core server model and the full 32768-candidate
#                        sweep evaluated scalar vs batch vs parallel-batch
#                        (all three must pick the same winner bit-exactly).
#   BENCH_serving.json — tecfand miss-path run: the request working set is
#                        much larger than the result cache and warm-up is
#                        off, so nearly every request pays the cache-miss
#                        compute the banded backend accelerates. The key
#                        grid now mixes run/sweep requests in with the
#                        equilibrium ones (reported per kind under
#                        "kind_split"), the run embeds the server-side
#                        per-stage latency histograms (`metrics` verb), and
#                        it fails if the server-reported hit p99 disagrees
#                        with the client-observed one (--check-p99).
#   BENCH_cluster.json — direct tecfand vs tecrouter over 1/2/4 in-process
#                        backends (cached + miss paths over loopback TCP
#                        through the router's one data plane), a
#                        bit-identical routed-vs-direct reply check over
#                        TCP, and a failover run killing a backend
#                        mid-stream (client-visible errors must be zero).
#                        The miss corpus is the same >=1k-request loadgen
#                        key grid BENCH_serving walks. The file records
#                        the core count: on one core the router column
#                        measures forwarding overhead, not horizontal
#                        scaling.
#
# After the cluster run this script asserts the routed/direct cached
# throughput ratio against ROUTED_RATIO_FLOOR (default 0.6): a forwarding
# overhead regression fails the bench run loudly instead of silently
# shipping a slower committed number.
#
# It then runs a chaos storm (tools/chaos): seeded fault-injection phases
# — refusals, blackholes, mid-line disconnects, short writes, slow-loris,
# corrupted/truncated/unsolicited replies, latency spikes with hedging,
# and a mixed storm — against a proxied router+fleet, asserting the six
# storm invariants after every storm (src/testing/chaos_fleet.h). Any
# violation fails the bench run and prints the storm seed to replay.
#
# The serving run doubles as the tracing-overhead A/B: tracing is compiled
# in but unsampled, so its throughput against the committed
# BENCH_serving.json is the cost of the always-on trace branches. The
# delta is recorded as trace_overhead_pct and gated at
# TRACE_OVERHEAD_PCT_MAX (default 2%). BENCH_cluster.json additionally
# records sampled-trace counts per tier from a short fully-sampled routed
# pass ("tracing" section).
#
#   scripts/bench.sh                 # all benchmarks, 3 s loadgen run
#   DURATION_S=10 scripts/bench.sh   # longer serving interval
#   ROUTED_RATIO_FLOOR=0.7 scripts/bench.sh   # stricter router floor
#   CHAOS_SECONDS=60 scripts/bench.sh         # longer chaos storm budget
#   CHAOS_SECONDS=0.1 CHAOS_SEED=7 scripts/bench.sh  # quick seeded storm
#   TRACE_OVERHEAD_PCT_MAX=5 scripts/bench.sh  # looser tracing-overhead gate
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
ROUTED_RATIO_FLOOR="${ROUTED_RATIO_FLOOR:-0.6}"

cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j"$JOBS" \
  --target bench_solver bench_policy bench_cluster loadgen chaos

./build-release/bench/bench_solver --out BENCH_solver.json

./build-release/bench/bench_policy --out BENCH_policy.json

./build-release/tools/loadgen \
  --keys 1024 --cache 128 --no-warmup \
  --duration-s "${DURATION_S:-3}" \
  --check-p99 \
  --out BENCH_serving.json

# Tracing overhead gate: the run above has tracing compiled in but
# unsampled (--trace-every defaults to 0), so its throughput against the
# committed BENCH_serving.json measures exactly what the unsampled path
# costs — one branch per stage. The regression is recorded in the JSON as
# trace_overhead_pct and must stay within TRACE_OVERHEAD_PCT_MAX (negative
# values mean this run was faster than the committed one). Skipped when no
# committed baseline exists (first run in a fresh clone).
python3 - "${TRACE_OVERHEAD_PCT_MAX:-2}" <<'EOF'
import json, subprocess, sys

limit = float(sys.argv[1])
with open("BENCH_serving.json") as f:
    bench = json.load(f)
try:
    prior = json.loads(subprocess.check_output(
        ["git", "show", "HEAD:BENCH_serving.json"],
        stderr=subprocess.DEVNULL, text=True))
    baseline = float(prior["throughput_rps"])
except Exception:
    baseline = 0.0
if baseline > 0:
    overhead = (baseline - bench["throughput_rps"]) / baseline * 100.0
    bench["trace_overhead_pct"] = round(overhead, 3)
    with open("BENCH_serving.json", "w") as f:
        json.dump(bench, f, indent=2)
        f.write("\n")
    print(f"bench.sh: unsampled-tracing throughput {bench['throughput_rps']:.0f} rps "
          f"vs committed {baseline:.0f} rps: overhead {overhead:+.2f}%"
          f" (limit {limit}%)")
    if overhead > limit:
        sys.exit(f"bench.sh: FAIL — unsampled tracing costs {overhead:.2f}% "
                 f"throughput, over the TRACE_OVERHEAD_PCT_MAX of {limit}%")
else:
    print("bench.sh: no committed BENCH_serving.json baseline; "
          "skipping the trace-overhead gate")
EOF

./build-release/bench/bench_cluster \
  --duration-s "${CLUSTER_DURATION_S:-1.5}" \
  --out BENCH_cluster.json

# The router is only worth shipping while forwarding stays cheap: fail the
# run if the epoll plane's cached throughput falls below the floor as a
# fraction of direct serving on the same host.
python3 - "$ROUTED_RATIO_FLOOR" <<'EOF'
import json, sys

floor = float(sys.argv[1])
with open("BENCH_cluster.json") as f:
    bench = json.load(f)
scenarios = bench["scenarios"]
direct = scenarios["direct"]["cached"]["rps"]
routed = scenarios["router_1"]["cached"]["rps"]
ratio = routed / direct if direct > 0 else 0.0
print(f"bench.sh: routed/direct cached ratio {ratio:.3f} "
      f"({routed:.0f}/{direct:.0f} rps), floor {floor}")
if ratio < floor:
    sys.exit(f"bench.sh: FAIL — routed cached throughput is {ratio:.3f} of "
             f"direct, below the ROUTED_RATIO_FLOOR of {floor}")
EOF

# Chaos storm: the release-built router+fleet must hold the five storm
# invariants under every fault class. A violating storm prints its seed;
# replay with  tools/chaos --seed <base-seed> --phase <name>.
./build-release/tools/chaos \
  --chaos-seconds "${CHAOS_SECONDS:-20}" \
  --seed "${CHAOS_SEED:-1}"
