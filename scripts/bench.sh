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
#   BENCH_serving.json — one cold tecfand pass: tools/loadgen sends each of
#                        the 1024 distinct grid keys once (equilibrium, run
#                        and sweep requests, reported per kind under
#                        "kind_split") with warm-up off, so every request
#                        pays the cache-miss compute the banded backend
#                        accelerates. The run embeds the server-side
#                        per-stage latency histograms (`metrics` verb).
#   BENCH_cluster.json — direct tecfand vs tecrouter over 1/2/4 in-process
#                        backends, 2 workers per backend, all from loadgen
#                        runs (reports kept in build-release/cluster/).
#                        Each topology gets one cold miss pass (each of the
#                        1024 grid keys once over 16 connections) and the
#                        best of three warm cached passes (32 keys, 16
#                        connections, CLUSTER_DURATION_S each). The direct
#                        cached passes, where every round trip is a hit,
#                        fail if the server-reported hit p99 disagrees
#                        with the client-observed one (--check-p99). One
#                        traced routed cold pass fills the "tracing"
#                        section. Routed-vs-direct reply bytes and
#                        failover without client-visible errors are
#                        tier-1 tests (ClusterSmoke, DataPlaneEquivalence,
#                        RouterPipeline, Chaos), not bench runs.
#
# Every BENCH file records the host that produced it under "host": cores,
# CPU model and MHz (from /proc/cpuinfo), compiler, build type and `git
# describe`. On one core the router column measures forwarding overhead,
# not horizontal scaling.
#
# Every stage runs even when a gate before it fails: each gate prints its
# verdict (trace overhead, --check-p99, the routed/direct floor, chaos),
# and the script exits non-zero at the end if any of them failed.
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
# TRACE_OVERHEAD_PCT_MAX (default 2%). Both runs are the same 1024
# requests with a hit ratio of exactly 0. BENCH_cluster.json additionally
# records sampled-trace counts per tier from the traced routed pass.
#
#   scripts/bench.sh                 # all benchmarks
#   CLUSTER_DURATION_S=3 scripts/bench.sh     # longer cached cluster passes
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
  --target bench_solver bench_policy loadgen chaos

# Each gate records its verdict here rather than ending the run.
FAILED=()
gate() {  # NAME STATUS
  if (( $2 == 0 )); then
    echo "bench.sh: gate $1: PASS"
  else
    echo "bench.sh: gate $1: FAIL"
    FAILED+=("$1")
  fi
}

# Add the "host" block (cores, CPU, compiler, build type, git describe) to
# each BENCH file named.
stamp_host() {
  python3 - "$@" <<'EOF'
import json, os, re, subprocess, sys

cache = {}
with open("build-release/CMakeCache.txt") as f:
    for line in f:
        m = re.match(r"(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):\w+=(.*)", line)
        if m:
            cache[m.group(1)] = m.group(2).strip()
compiler = subprocess.run([cache["CMAKE_CXX_COMPILER"], "--version"],
                          capture_output=True, text=True).stdout.splitlines()[0]
describe = subprocess.run(["git", "describe", "--always", "--dirty"],
                          capture_output=True, text=True).stdout.strip()
cpu = {}
with open("/proc/cpuinfo") as f:
    for line in f:
        key, _, value = line.partition(":")
        cpu.setdefault(key.strip(), value.strip())
host = {"cores": os.cpu_count(), "cpu_model": cpu.get("model name", "unknown"),
        "cpu_mhz": float(cpu.get("cpu MHz", 0)), "compiler": compiler,
        "build_type": cache["CMAKE_BUILD_TYPE"], "git_describe": describe}
for path in sys.argv[1:]:
    with open(path) as f:
        bench = json.load(f)
    bench.pop("host", None)
    with open(path, "w") as f:
        json.dump({"host": host, **bench}, f, indent=2)
        f.write("\n")
EOF
}

./build-release/bench/bench_solver --out BENCH_solver.json
stamp_host BENCH_solver.json

./build-release/bench/bench_policy --out BENCH_policy.json
stamp_host BENCH_policy.json

# One whole cold pass: --duration-s only caps it.
./build-release/tools/loadgen \
  --keys 1024 --cache 128 --no-warmup --duration-s 600 \
  --out BENCH_serving.json
stamp_host BENCH_serving.json

# Tracing overhead gate: the run above has tracing compiled in but
# unsampled (--trace-every defaults to 0), so its throughput against the
# committed BENCH_serving.json measures exactly what the unsampled path
# costs — one branch per stage. The regression is recorded in the JSON as
# trace_overhead_pct and must stay within TRACE_OVERHEAD_PCT_MAX (negative
# values mean this run was faster than the committed one). Skipped when no
# committed baseline exists (first run in a fresh clone).
status=0
python3 - "${TRACE_OVERHEAD_PCT_MAX:-2}" <<'EOF' || status=$?
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
gate trace-overhead $status

# BENCH_cluster.json. Every topology keeps 2 workers per backend; a cold
# pass sends each key once, and --duration-s only caps it.
CLUSTER_OUT=build-release/cluster
mkdir -p "$CLUSTER_OUT"
p99_status=0
cluster_run() {  # NAME LOADGEN-FLAGS...: report to $CLUSTER_OUT/NAME.{txt,json}
  local name="$1"
  shift
  ./build-release/tools/loadgen "$@" --out "$CLUSTER_OUT/$name.json" \
    > "$CLUSTER_OUT/$name.txt"
}
for backends in 0 1 2 4; do
  if (( backends == 0 )); then
    name=direct fleet=(--workers 2) check=(--check-p99)
  else
    name=router_$backends check=()
    fleet=(--router --backends "$backends" --workers $((2 * backends)))
  fi
  cluster_run "$name.miss" "${fleet[@]}" --keys 1024 --cache 48 \
    --no-warmup --connections 16 --duration-s 600
  for pass in 1 2 3; do
    cluster_run "$name.cached$pass" "${fleet[@]}" --keys 32 --cache 48 \
      --connections 16 --duration-s "${CLUSTER_DURATION_S:-1.5}" \
      "${check[@]}" || { (( ${#check[@]} > 0 )) || exit 1; p99_status=1; }
  done
done
gate check-p99 $p99_status
cluster_run traced --router --backends 2 --workers 4 --keys 1024 \
  --cache 48 --no-warmup --connections 4 --trace-every 8 --duration-s 600

python3 - "$CLUSTER_OUT" "${CLUSTER_DURATION_S:-1.5}" <<'EOF'
import json, sys

out_dir, duration_s = sys.argv[1], float(sys.argv[2])

def report(name):
    with open(f"{out_dir}/{name}.json") as f:
        return json.load(f)

def numbers(run):
    return {"rps": run["throughput_rps"], "p50_us": run["latency_p50_us"],
            "p99_us": run["latency_p99_us"], "requests": run["requests"],
            "errors": run["errors"] + run["busy_rejections"]}

scenarios = {}
for name, backends in (("direct", 0), ("router_1", 1), ("router_2", 2),
                       ("router_4", 4)):
    cached = max((report(f"{name}.cached{p}") for p in (1, 2, 3)),
                 key=lambda run: run["throughput_rps"])
    miss = report(f"{name}.miss")
    scenarios[name] = {"backends": backends, "cached": numbers(cached),
                       "miss": numbers(miss)}
    print(f"bench.sh: {name:<9} cached {cached['throughput_rps']:8.0f} rps, "
          f"miss {miss['throughput_rps']:7.0f} rps")
traced = report("traced")
bench = {
    "config": {"duration_s": duration_s, "connections": 16,
               "cached_passes": 3, "cached_keys": 32, "miss_keys": 1024,
               "cache_per_backend": 48, "workers_per_backend": 2},
    "scenarios": scenarios,
    "tracing": {"trace_every": traced["trace_every"],
                "requests": traced["requests"],
                "traces_sampled_router": traced["traces_sampled_router"],
                "traces_sampled_server": traced["traces_sampled_server"]},
}
with open("BENCH_cluster.json", "w") as f:
    json.dump(bench, f, indent=2)
    f.write("\n")
EOF
stamp_host BENCH_cluster.json

# The router is only worth shipping while forwarding stays cheap: fail the
# run if the epoll plane's cached throughput falls below the floor as a
# fraction of direct serving on the same host.
status=0
python3 - "$ROUTED_RATIO_FLOOR" <<'EOF' || status=$?
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
gate routed-ratio-floor $status

# Chaos storm: the release-built router+fleet must hold the five storm
# invariants under every fault class. A violating storm prints its seed;
# replay with  tools/chaos --seed <base-seed> --phase <name>.
status=0
./build-release/tools/chaos \
  --chaos-seconds "${CHAOS_SECONDS:-20}" \
  --seed "${CHAOS_SEED:-1}" || status=$?
gate chaos $status

if (( ${#FAILED[@]} > 0 )); then
  echo "bench.sh: FAIL — gates failed: ${FAILED[*]}" >&2
  exit 1
fi
