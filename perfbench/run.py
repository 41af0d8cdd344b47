#!/usr/bin/env python3
"""The repository benchmark: tecfand/tecrouter served end to end, and the
paper's own evaluation, each checked against a committed reference.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hot_routed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced

The first call builds the daemons and the native harness (perfbench/src)
under .bench_build/. Every call prints each metric by name and unit, a
`context` line with the host stamp, and, last, one JSON object:
{"correct", "attempted", "failed", "metrics"}. It exits non-zero when a
reply or result differs from the reference. perfbench/README.md explains
the workloads, the metrics and how to read a traced run.
"""

import argparse
import json
import math
import os
import random
import re
import select
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_DIR = os.path.join(HERE, "reference")
BUILD_DIR = os.path.join(os.getcwd(), ".bench_build", "perfbench")

DEFAULT_SEED = 1
WORKLOADS = ("hot_routed", "miss_routed", "paper_batch")

# Served fleet: the shipped tecfand x2 behind one shipped tecrouter.
BACKENDS = 2
WORKERS_PER_BACKEND = 2
# Each served run sets up and measures this many times, each with a fresh
# fleet; every end-to-end metric (setup_s too) is the median over the
# passes. hot_routed's short passes buy more fleets, and so more samples of
# where the guest scheduler places the fleet's busy threads.
PASSES = {"hot_routed": 5, "miss_routed": 3}
# paper_batch builds its engines this many times; setup_s is the median.
# One build takes tens of milliseconds, so it needs more samples.
BATCH_SETUPS = 9
# hot_routed: HOT_CONNS connections, each with HOT_WINDOW pipelined
# requests in flight over HOT_KEYS pre-warmed equilibrium keys. Its rps,
# p50 and p99 are medians over HOT_SLICE_S slices of each pass, so a stall
# moves the slices it lands in, not the typical one.
HOT_CONNS = 2
HOT_WINDOW = 256
HOT_KEYS = 512
HOT_SLICE_S = 0.25
# The load client has a CPU of its own and the fleet the other three, so
# the client never shares a CPU with the processes under test: left to the
# scheduler, the five busy threads' placement alone moved one fleet's
# hot_routed p99 by up to 2x. The fleet's own threads stay free to spread
# (a router with a reactor per core could still use all three).
CPU_CLIENT = 3
FLEET_CPUS = {0, 1, 2}
# miss_routed: more connections than the two backend pipes, one request
# in flight each (closed loop).
MISS_CONNS = 4
# Relative tolerance on numeric result fields; discrete fields are exact.
RTOL = 1e-6

# (workload, threads) pairs tecfand accepts: Table I plus the extended rows.
CASES = [("cholesky", 16), ("cholesky", 4), ("fmm", 16), ("fmm", 4),
         ("volrend", 16), ("water", 4), ("lu", 16), ("lu", 4),
         ("barnes", 16), ("ocean", 16), ("radix", 16)]
FAN_LEVELS = 8
DVFS_LEVELS = 6
REACTIVE = ("fan-only", "fan+tec", "fan+dvfs", "dvfs+tec")

E2E = [("rps", "1/s"), ("p50_us", "us"), ("p99_us", "us"),
       ("cpu_us_per_op", "us"), ("setup_s", "s"), ("rss_mib", "MiB")]

PER_LAYER = [
    ("cluster.route_us", "us"), ("cluster.loop_iter_us", "us"),
    ("cluster.events_per_wake", "count"), ("cluster.added_us", "us"),
    ("cluster.cpu_us_per_op", "us"), ("cluster.ctx_switches_per_op", "count"),
    ("cluster.backend_wait_p50_us", "us"), ("cluster.backend_wait_p99_us", "us"),
    ("cluster.backend_inflight", "count"), ("cluster.failovers", "count"),
    ("cluster.hedges", "count"), ("cluster.errors", "count"),
    ("service.parse_us", "us"), ("service.cache_probe_us", "us"),
    ("service.serialize_us", "us"), ("service.e2e_hit_us", "us"),
    ("service.handle_line_hit_us", "us"), ("service.cpu_us_per_op", "us"),
    ("service.ctx_switches_per_op", "count"),
    ("service.queue_wait_p50_us", "us"), ("service.queue_wait_p99_us", "us"),
    ("service.compute_p50_us", "us"), ("service.compute_p99_us", "us"),
    ("service.workers_busy", "1"), ("service.hit_ratio", "1"),
    ("service.busy", "count"), ("service.errors", "count"),
    ("service.expired", "count"),
    ("sim.engine_build_s", "s"), ("sim.equilibrium_tec_off_us", "us"),
    ("sim.equilibrium_tec_on_us", "us"), ("sim.run_us", "us"),
    ("sim.sweep_s", "s"), ("sim.server_run_s", "s"), ("sim.intervals", "count"),
    ("sim.plant_us_per_interval", "us"),
    ("core.decide_tecfan_us", "us"), ("core.decide_reactive_us", "us"),
    ("core.decide_oracle_us", "us"), ("core.decide_oftec_us", "us"),
    ("core.decisions", "count"), ("core.predict_us", "us"),
    ("core.predicts_per_decision", "count"),
    ("core.evaluate_batch_ns_per_candidate", "ns"),
    ("core.candidates_per_decision", "count"), ("core.evaluated_frac", "1"),
    ("thermal.steady_solve_tec_off_us", "us"),
    ("thermal.steady_solve_tec_on_us", "us"),
    ("thermal.transient_step_us", "us"), ("linalg.band_solve_us", "us"),
    # Self time of each layer along the workload's blocking path (medians
    # over matched traces for the served workloads; apportioned wall time
    # for paper_batch), and what they leave unexplained.
    ("path.client_us", "us"), ("path.router_us", "us"), ("path.route_us", "us"),
    ("path.pipe_us", "us"), ("path.backend_us", "us"),
    ("path.cache_probe_us", "us"), ("path.queue_wait_us", "us"),
    ("path.compute_us", "us"), ("path.serialize_us", "us"),
    ("path.base_us", "us"), ("path.decide_us", "us"), ("path.model_us", "us"),
    ("path.plant_us", "us"), ("path.residual_us", "us"),
    ("path.traces", "count"),
] + [("trace.overhead_" + name, "ratio") for name, _ in E2E]


# Layers along a served request's blocking path, client side first.
PATH_SERVED = ("client", "router", "route", "pipe", "backend", "cache_probe",
               "queue_wait", "compute", "serialize")


class BenchError(Exception):
    """A failure that ends the run without a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("the repository's src/ is missing; run from a full "
                         "checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"])
    run_checked(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
                 "--target", "tecfand", "tecrouter", "perfbench"])
    return {name: os.path.join(BUILD_DIR, sub, name) for name, sub in
            (("tecfand", "tools"), ("tecrouter", "tools"), ("perfbench", "."))}


def run_checked(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError("command failed: " + " ".join(cmd))


def host_stamp():
    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):\w+=(.*)", line)
            if m:
                cache[m.group(1)] = m.group(2).strip()
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True).stdout.strip() or "unknown"
    except OSError:
        describe = "unknown"
    return {"cores": os.cpu_count(), "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "git_describe": describe}


# ---------------------------------------------------------------------------
# Line protocol


def parse_reply(line):
    """(status, {key: value}) for one protocol reply line."""
    status, _, rest = line.partition(" ")
    fields, i = {}, 0
    while i < len(rest):
        eq = rest.find("=", i)
        if eq < 0:
            break
        key = rest[i:eq].strip()
        i = eq + 1
        if i < len(rest) and rest[i] == '"':
            i += 1
            value = []
            while i < len(rest) and rest[i] != '"':
                if rest[i] == "\\" and i + 1 < len(rest):
                    i += 1
                value.append(rest[i])
                i += 1
            i += 2  # closing quote and the separating space
            fields[key] = "".join(value)
        else:
            end = rest.find(" ", i)
            end = len(rest) if end < 0 else end
            fields[key] = rest[i:end]
            i = end + 1
    if status == "error" and "msg" in fields:
        fields = {"msg": fields["msg"]}
    return status, fields


class Conn:
    """One blocking protocol connection."""

    def __init__(self, port, timeout=120.0):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout)
        self.file = self.sock.makefile("r", encoding="utf-8", newline="\n")

    def request(self, line):
        self.sock.sendall((line + "\n").encode())
        reply = self.file.readline()
        if not reply:
            raise BenchError("connection closed on: " + line)
        return reply.rstrip("\n")

    def close(self):
        self.file.close()
        self.sock.close()


def query(port, line):
    conn = Conn(port)
    try:
        return parse_reply(conn.request(line))
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# /proc


def proc_cpu_s(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_ctx_switches(pid):
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/status") as f:
                for line in f:
                    if line.startswith(("voluntary_ctxt_switches",
                                        "nonvoluntary_ctxt_switches")):
                        total += int(line.split()[1])
        except OSError:
            pass  # thread exited while listing
    return total


def proc_hwm_mib(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def cpu_times():
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_frac(before, after):
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # user..steal; guest time is inside user
    return delta[7] / total if total > 0 and len(delta) > 7 else 0.0


# ---------------------------------------------------------------------------
# Inputs: every valid canonical key, and the per-workload corpora


def eq_line(wl, threads, fan, dvfs, tec):
    return (f"equilibrium workload={wl} threads={threads} fan={fan} "
            f"dvfs={dvfs} tec={'on' if tec else 'off'}")


def run_line(policy, wl, threads, fan):
    return f"run policy={policy} workload={wl} threads={threads} fan={fan}"


def eq_universe(tec):
    return [eq_line(wl, th, fan, dvfs, tec) for wl, th in CASES
            for fan in range(FAN_LEVELS) for dvfs in range(DVFS_LEVELS)]


def hot_set(seed):
    """HOT_KEYS TEC-off equilibrium keys picked by the seed."""
    return random.Random(f"hot/{seed}").sample(eq_universe(False), HOT_KEYS)


def miss_corpus(seed, n):
    """The fixed miss corpus, in pass n's order under the seed.

    Every seed sends the same 1038 keys, so every run does the same work;
    the seed only decides the order and so which connection owns which key
    and which requests queue behind which runs. Each pass of a run has its
    own order, so a run's pooled percentiles average over several.
    A third are TEC-off equilibria (~1 ms), two fifths TEC-on (~8 ms) and a
    quarter runs (8-150 ms), so no rare kind sets p50 or p99; queueing
    behind runs at the backend pipes spreads every kind's latency further
    (kind_bands reports where each percentile falls). Each kind keeps two
    of every three (TEC-on: five of six) keys of its grid, so it spans
    every case and knob level. TECfan runs use the fastest fan level only:
    at slower ones a single run takes up to 2 s, and those few would set
    the tail and the run's length."""
    off = [l for i, l in enumerate(eq_universe(False)) if i % 3 != 2]
    on = [l for i, l in enumerate(eq_universe(True)) if i % 6 != 5]
    runs = [l for i, l in enumerate(run_line(p, wl, th, fan)
                                    for wl, th in CASES
                                    for fan in range(FAN_LEVELS)
                                    for p in REACTIVE) if i % 3 != 2]
    tecfan = [run_line("tecfan", wl, th, 0) for wl, th in CASES]
    corpus = off + on + runs + tecfan
    random.Random(f"miss/{seed}/{n}").shuffle(corpus)
    return corpus


def cases_of(lines):
    out = []
    for line in lines:
        wl = re.search(r"workload=(\S+)", line).group(1)
        th = int(re.search(r"threads=(\d+)", line).group(1))
        if (wl, th) not in out:
            out.append((wl, th))
    return out


# ---------------------------------------------------------------------------
# Reference


def load_reference(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read reference {path}: {e}")


DISCRETE = {"policy", "workload", "fan_level", "levels_tried", "decisions",
            "completed", "threads", "id"}


def compare_fields(label, got, want, problems):
    """Discrete fields exactly, numeric ones within RTOL."""
    if set(got) != set(want):
        problems.append(f"{label}: fields {sorted(got)} != {sorted(want)}")
        return
    for key, expected in want.items():
        value = got[key]
        if key in DISCRETE or not isinstance(expected, (int, float)):
            if str(value) != str(expected):
                problems.append(f"{label}: {key}={value}, reference {expected}")
            continue
        value = float(value)
        if abs(value - expected) > RTOL * max(abs(expected), 1e-12):
            problems.append(f"{label}: {key}={value!r}, reference {expected!r}")


def reply_fields(reply):
    status, fields = parse_reply(reply)
    if status != "ok":
        return None
    fields.pop("cached", None)
    out = {}
    for key, value in fields.items():
        try:
            out[key] = value if key in DISCRETE else float(value)
        except ValueError:
            out[key] = value
    return out


def check_served(replies, reference, problems):
    """replies: {request line: reply line}."""
    for line, reply in replies.items():
        want = reference.get(line)
        if want is None:
            problems.append(f"no reference for {line}")
            continue
        got = reply_fields(reply)
        if got is None:
            problems.append(f"{line}: {reply}")
            continue
        compare_fields(line, got, want, problems)


# ---------------------------------------------------------------------------
# Served fleet


class Fleet:
    """tecfand x BACKENDS behind one tecrouter, each its own process."""

    def __init__(self, bins, trace):
        self.bins, self.trace = bins, trace
        self.procs, self.backend_ports, self.router_port = [], [], None

    def _spawn(self, cmd):
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True,
                                preexec_fn=pin_to(FLEET_CPUS))
        self.procs.append(proc)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            ready, _, _ = select.select([proc.stderr], [], [], 1.0)
            if not ready:
                continue
            line = proc.stderr.readline()
            if not line:
                break
            m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
            if m:
                threading.Thread(target=proc.stderr.read, daemon=True).start()
                return int(m.group(1))
        raise BenchError("daemon did not start: " + " ".join(cmd))

    def start(self):
        trace = ["--trace-every", "1"] if self.trace else []
        for _ in range(BACKENDS):
            self.backend_ports.append(self._spawn(
                [self.bins["tecfand"], "--port", "0", "--workers",
                 str(WORKERS_PER_BACKEND)] + trace))
        self.router_port = self._spawn(
            [self.bins["tecrouter"], "--port", "0", "--backends",
             ",".join(map(str, self.backend_ports))] + trace)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            _, stats = query(self.router_port, "stats")
            if int(stats.get("backends_up", 0)) == BACKENDS:
                return
            time.sleep(0.01)
        raise BenchError("router never saw every backend up")

    @property
    def pids(self):
        return [p.pid for p in self.procs]

    def stop(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []


def pin_to(cpus):
    """A preexec_fn that binds the child to `cpus`; None (no binding) when
    the host has fewer than four CPUs or `cpus` is None."""
    if cpus is None or len(os.sched_getaffinity(0)) < 4:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


def run_native(bins, args, cpu=None):
    proc = subprocess.run([bins["perfbench"]] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170,
                          preexec_fn=pin_to(cpu))
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise BenchError("perfbench " + args[0] + " failed")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load(bins, port, lines_path, conns, window, *, once=False, seconds=0.0,
         expect=None, replies=None, trace_base=None, spans=None,
         slice_s=None):
    args = ["load", "--port", str(port), "--lines", lines_path, "--conns",
            str(conns), "--window", str(window), "--seconds", str(seconds)]
    if once:
        args.append("--once")
    for flag, value in (("--expect", expect), ("--replies", replies),
                        ("--trace-base", trace_base), ("--spans", spans),
                        ("--window-s", slice_s)):
        if value is not None:
            args += [flag, value]
    return run_native(bins, args, {CPU_CLIENT})


def write_lines(path, lines):
    with open(path, "w") as f:
        f.write("".join(line + "\n" for line in lines))


def read_replies(path, lines):
    """{request line: reply line} from a load client --replies file."""
    return {lines[int(index)]: reply for index, _, reply in read_reply_rows(path)}


def read_reply_rows(path):
    """(index, latency_us, reply) rows of a load client --replies file."""
    with open(path) as f:
        for row in f:
            index, latency, reply = row.rstrip("\n").split("\t", 2)
            yield index, float(latency), reply


def prime(bins, fleet, lines):
    """One table1 per case the corpus uses, straight to every backend: it
    fills each backend's base-scenario and workload memos."""
    table1 = [f"table1 workload={wl} threads={th}" for wl, th in cases_of(lines)]
    path = os.path.join(BUILD_DIR, "prime.txt")
    write_lines(path, table1)
    for port in fleet.backend_ports:
        r = load(bins, port, path, WORKERS_PER_BACKEND, 1, once=True)
        if r["ok"] != len(table1):
            raise BenchError(f"priming failed on backend {port}: {r}")


def warm_hot(bins, fleet, lines, reference, problems):
    """Compute the hot set on every backend, then read it back cached.

    Returns the cached replies; routed replies must be byte-identical to
    them. Also checks the computed replies against the reference and that a
    direct hit differs from the computed reply only by cached=1."""
    path = os.path.join(BUILD_DIR, "hot.txt")
    write_lines(path, lines)
    cached = None
    for port in fleet.backend_ports:
        passes = []
        for n in range(2):
            out = os.path.join(BUILD_DIR, f"hot_pass{n}.tsv")
            load(bins, port, path, WORKERS_PER_BACKEND, 1, once=True,
                 replies=out)
            passes.append(read_replies(out, lines))
        computed, hits = passes
        check_served(computed, reference, problems)
        for line in lines:
            if hits[line] != computed[line].replace("ok ", "ok cached=1 ", 1):
                problems.append(f"direct hit differs beyond cached=1: {line}")
        if cached is not None and hits != cached:
            problems.append("backends disagree on the hot set")
        cached = hits
    expect = os.path.join(BUILD_DIR, "hot_expect.txt")
    write_lines(expect, [cached[line] for line in lines])
    return path, expect


class Snapshot:
    """Counters of the processes under test at one instant."""

    def __init__(self, fleet):
        self.cpu = {pid: proc_cpu_s(pid) for pid in fleet.pids}
        self.ctx = {pid: proc_ctx_switches(pid) for pid in fleet.pids}
        self.backend_stats = [query(p, "stats")[1] for p in fleet.backend_ports]
        self.backend_metrics = [query(p, "metrics")[1]
                                for p in fleet.backend_ports]
        self.router_stats = query(fleet.router_port, "stats")[1]
        self.router_metrics = query(fleet.router_port, "metrics")[1]
        self.cpu_times = cpu_times()


class GaugeSampler:
    """Samples the router's backend_inflight gauge through the run."""

    def __init__(self, port):
        self.port, self.values, self.stop = port, [], threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        conn = Conn(self.port)
        try:
            while not self.stop.wait(0.05):
                _, stats = parse_reply(conn.request("stats"))
                self.values.append(float(stats.get("backend_inflight", 0)))
        finally:
            conn.close()

    def finish(self):
        self.stop.set()
        self.thread.join()
        return statistics.mean(self.values) if self.values else 0.0


def hist_delta(before, after, name):
    """(count, mean, buckets) of one histogram between two metrics dumps."""
    def buckets(fields):
        out = {}
        for pair in filter(None, fields.get(name + "_buckets", "").split(",")):
            upper, count = pair.split(":")
            out[float(upper)] = out.get(float(upper), 0) + int(count)
        return out

    b0, b1 = buckets(before), buckets(after)
    delta = {u: c - b0.get(u, 0) for u, c in b1.items() if c - b0.get(u, 0)}
    n0 = int(before.get(name + "_count", 0))
    n1 = int(after.get(name + "_count", 0))
    s0 = n0 * float(before.get(name + "_mean_us", 0))
    s1 = n1 * float(after.get(name + "_mean_us", 0))
    count = n1 - n0
    return count, (s1 - s0) / count if count else 0.0, delta


def merged_hist(pairs, name):
    count, total, buckets = 0, 0.0, {}
    for before, after in pairs:
        n, mean, b = hist_delta(before, after, name)
        count += n
        total += n * mean
        for u, c in b.items():
            buckets[u] = buckets.get(u, 0) + c
    return count, total, buckets


def bucket_percentile(buckets, p):
    """Upper bound of the bucket holding the nearest-rank percentile."""
    total = sum(buckets.values())
    if total == 0:
        return 0.0
    rank, seen = p / 100.0 * total, 0
    for upper in sorted(buckets):
        seen += buckets[upper]
        if seen >= rank:
            return upper
    return max(buckets)


def served_pass(bins, workload, seed, lines, seconds, trace, reference,
                problems):
    """One pass: set up a fresh fleet (spawn, priming or warm-up), run the
    timed phase once, tear the fleet down."""
    hot = workload == "hot_routed"
    t0 = time.monotonic()
    fleet = Fleet(bins, trace)
    try:
        fleet.start()
        if hot:
            lines_path, expect = warm_hot(bins, fleet, lines, reference,
                                          problems)
        else:
            prime(bins, fleet, lines)
            lines_path, expect = os.path.join(BUILD_DIR, "miss.txt"), None
            write_lines(lines_path, lines)
        setup_s = time.monotonic() - t0
        replies = None if hot else os.path.join(BUILD_DIR, "miss_replies.tsv")
        spans = os.path.join(BUILD_DIR, "client_spans.tsv") if trace else None
        # Client trace ids: a non-zero seed tag in the top 16 bits.
        trace_base = format((seed % 0xFFFF + 1) << 48, "x") if trace else None

        before = Snapshot(fleet)
        sampler = GaugeSampler(fleet.router_port) if trace else None
        r = load(bins, fleet.router_port, lines_path,
                 HOT_CONNS if hot else MISS_CONNS, HOT_WINDOW if hot else 1,
                 once=not hot, seconds=seconds, expect=expect,
                 replies=replies, trace_base=trace_base, spans=spans,
                 slice_s=str(HOT_SLICE_S) if hot else None)
        inflight = sampler.finish() if trace else 0.0
        after = Snapshot(fleet)
        hwm = sum(proc_hwm_mib(pid) for pid in fleet.pids)
        traces = direct = None
        if trace:
            traces = query(fleet.router_port, "trace limit=256")[1]
            if hot:
                # The same hot set straight to one backend, for the routed
                # minus direct round trip.
                direct = load(bins, fleet.backend_ports[0], lines_path,
                              HOT_CONNS, HOT_WINDOW, seconds=seconds,
                              expect=expect)
    finally:
        fleet.stop()

    if r["mismatches"]:
        problems.append(f"{r['mismatches']} routed replies differ from the "
                        f"direct backend's: {r['mismatch_examples']}")
    latencies = []
    if replies is not None:
        rows = list(read_reply_rows(replies))
        check_served({lines[int(i)]: reply for i, _, reply in rows},
                     reference, problems)
        latencies = [(lat, kind_of(lines[int(i)])) for i, lat, reply in rows
                     if reply.startswith("ok")]
    if r["failure"]:
        problems.append("load client: " + r["failure"])

    ok = r["ok"]
    failed = r["attempted"] - ok
    pids = list(before.cpu)  # backends first, the router last
    router_pid, backend_pids = pids[-1], pids[:-1]
    cpu = {pid: after.cpu[pid] - before.cpu[pid] for pid in pids}
    ctx = {pid: after.ctx[pid] - before.ctx[pid] for pid in pids}
    per_op = max(ok, 1)

    def delta(b, a, key):
        return float(a.get(key, 0)) - float(b.get(key, 0))

    bstats = list(zip(before.backend_stats, after.backend_stats))
    hits = sum(delta(b, a, "cache_hits") for b, a in bstats)
    misses = sum(delta(b, a, "cache_misses") for b, a in bstats)
    hit_ratio = hits / (hits + misses) if hits + misses else 0.0
    want_ratio = 1.0 if hot else 0.0
    if hit_ratio != want_ratio:
        problems.append(f"service.hit_ratio {hit_ratio} on {workload}, "
                        f"expected exactly {want_ratio}")
    if failed:
        problems.append(f"{failed} of {r['attempted']} requests failed "
                        f"(busy {r['busy']}, error {r['errors']}, missing "
                        f"{r['missing']})")

    if hot:
        rps, p50, p99 = r["window_rps"], r["window_p50_us"], r["window_p99_us"]
    else:
        rps, p50, p99 = ok / r["wall_s"], r["p50_us"], r["p99_us"]
    e2e = {"rps": rps, "p50_us": p50, "p99_us": p99,
           "cpu_us_per_op": sum(cpu.values()) * 1e6 / per_op,
           "setup_s": setup_s, "rss_mib": hwm}
    layers = {}
    if trace:
        bpairs = list(zip(before.backend_metrics, after.backend_metrics))
        rpair = [(before.router_metrics, after.router_metrics)]
        _, _, route = merged_hist(rpair, "route")
        _, _, loop = merged_hist(rpair, "loop_iteration")
        _, batch_mean, _ = hist_delta(before.router_metrics,
                                      after.router_metrics,
                                      "loop_dispatch_batch")
        _, _, bwait = merged_hist(rpair, "backend_wait")
        stage = {name: merged_hist(bpairs, name)[2] for name in
                 ("parse", "cache_probe", "serialize", "e2e_hit",
                  "queue_wait", "compute")}
        compute_total = merged_hist(bpairs, "compute")[1]
        rstats = (before.router_stats, after.router_stats)
        layers.update({
            "cluster.route_us": bucket_percentile(route, 50),
            "cluster.loop_iter_us": bucket_percentile(loop, 50),
            "cluster.events_per_wake": batch_mean,
            "cluster.cpu_us_per_op": cpu[router_pid] * 1e6 / per_op,
            "cluster.ctx_switches_per_op": ctx[router_pid] / per_op,
            "cluster.backend_wait_p50_us": bucket_percentile(bwait, 50),
            "cluster.backend_wait_p99_us": bucket_percentile(bwait, 99),
            "cluster.backend_inflight": inflight,
            "cluster.failovers": delta(*rstats, "failovers"),
            "cluster.hedges": delta(*rstats, "hedges"),
            "cluster.errors": delta(*rstats, "errors"),
            "service.parse_us": bucket_percentile(stage["parse"], 50),
            "service.cache_probe_us": bucket_percentile(stage["cache_probe"],
                                                        50),
            "service.serialize_us": bucket_percentile(stage["serialize"], 50),
            "service.e2e_hit_us": bucket_percentile(stage["e2e_hit"], 50),
            "service.cpu_us_per_op":
                sum(cpu[p] for p in backend_pids) * 1e6 / per_op,
            "service.ctx_switches_per_op":
                sum(ctx[p] for p in backend_pids) / per_op,
            "service.queue_wait_p50_us":
                bucket_percentile(stage["queue_wait"], 50),
            "service.queue_wait_p99_us":
                bucket_percentile(stage["queue_wait"], 99),
            "service.compute_p50_us": bucket_percentile(stage["compute"], 50),
            "service.compute_p99_us": bucket_percentile(stage["compute"], 99),
            "service.workers_busy": compute_total * 1e-6 / (
                r["wall_s"] * WORKERS_PER_BACKEND * BACKENDS),
            "service.hit_ratio": hit_ratio,
            "service.busy": sum(delta(b, a, "pool_rejected") for b, a in bstats),
            "service.errors": sum(delta(b, a, "errors") for b, a in bstats),
            "service.expired": sum(delta(b, a, "pool_expired")
                                   for b, a in bstats),
        })
        layers.update(path_self_times(traces, spans))
        if hot:
            layers["cluster.added_us"] = r["p50_us"] - direct["p50_us"]
    return {"e2e": e2e, "layers": layers, "attempted": r["attempted"],
            "failed": failed, "latencies": latencies, "wall_s": r["wall_s"],
            "steal_frac": steal_frac(before.cpu_times, after.cpu_times)}


def combine(passes, problems, **extra):
    """Each end-to-end metric is the median over the passes; every request
    or simulation of every pass counts in attempted and failed."""
    return {"e2e": {name: statistics.median(p["e2e"][name] for p in passes)
                    for name, _ in E2E},
            "layers": passes[0]["layers"], "problems": problems,
            "attempted": sum(p["attempted"] for p in passes),
            "failed": sum(p["failed"] for p in passes),
            "context": {"steal_frac": [p["steal_frac"] for p in passes],
                        "wall_s": [p["wall_s"] for p in passes], **extra}}


def served_measure(bins, workload, seed, seconds, trace, reference):
    """The workload's PASSES untraced passes, or one traced pass.
    hot_routed splits --seconds across its passes; each miss_routed pass
    sends the whole corpus."""
    hot = workload == "hot_routed"
    problems = []

    def lines_of(n):
        return hot_set(seed) if hot else miss_corpus(seed, n)

    passes = [served_pass(bins, workload, seed, lines_of(n),
                          seconds / PASSES[workload], trace, reference,
                          problems)
              for n in range(1 if trace else PASSES[workload])]
    result = combine(passes, problems)
    if not hot:
        # Percentiles over every request of the passes: p99 then has ten
        # samples beyond it per pass, not ten in all.
        pooled = sorted(lat for p in passes for lat, _ in p["latencies"])
        result["e2e"]["p50_us"] = nearest_rank(pooled, 50)
        result["e2e"]["p99_us"] = nearest_rank(pooled, 99)
        result["context"]["kinds"] = kind_bands(passes)
    result["lines"] = lines_of(0)
    return result


def kind_of(line):
    return ("tecfan" if "policy=tecfan" in line else
            "run" if line.startswith("run") else
            "on" if "tec=on" in line else "off")


def kind_bands(passes):
    """Per request kind of the miss corpus: its count and latency band
    (10th, 50th and 90th percentiles, us); and, for p50 and p99, how many
    of each kind rank within ten places of it. A percentile set by the
    edge of a rare kind would show as that kind's band ending there."""
    by_kind = {}
    for p in passes:
        for lat, kind in p["latencies"]:
            by_kind.setdefault(kind, []).append(lat)
    out = {}
    for kind, v in sorted(by_kind.items()):
        v.sort()
        out[kind] = [len(v)] + [nearest_rank(v, q) for q in (10, 50, 90)]
    ranked = sorted(lat for p in passes for lat in p["latencies"])
    for q in (50, 99):
        at = max(math.ceil(q / 100.0 * len(ranked)), 1) - 1
        near = {}
        for _, kind in ranked[max(at - 10, 0):at + 11]:
            near[kind] = near.get(kind, 0) + 1
        out[f"near_p{q}"] = near
    return out


def nearest_rank(sorted_values, p):
    """The nearest-rank percentile, as the load client computes it."""
    if not sorted_values:
        return 0.0
    rank = math.ceil(p / 100.0 * len(sorted_values))
    return sorted_values[min(len(sorted_values), max(rank, 1)) - 1]


def path_self_times(trace_fields, spans_path):
    """Self time of each layer along the path of a typical request: the
    mean over the matched traces whose client latency lies between the
    40th and 60th percentiles, so the layers add up to about p50."""
    client = {}
    with open(spans_path) as f:
        for row in f:
            tid, _, latency = row.split("\t")
            client[int(tid, 16)] = float(latency)
    rows = []
    for key, value in trace_fields.items():
        if not re.fullmatch(r"t\d+", key):
            continue
        trace = json.loads(value)
        tid = int(trace["trace_id"], 16)
        spans = {}
        for s in trace["spans"]:
            name = (s["tier"], s["name"])
            spans[name] = spans.get(name, 0) + s["dur_us"]
        router_e2e = spans.get(("router", "e2e"))
        server_e2e = spans.get(("tecfand", "e2e"))
        if tid not in client or not router_e2e or not server_e2e:
            continue
        children = {n: spans.get(("tecfand", n), 0) for n in
                    ("cache_probe", "queue_wait", "compute", "serialize")}
        route = spans.get(("router", "route"), 0)
        bwait = spans.get(("router", "backend_wait"), 0)
        row = {"latency": client[tid],
               "client": client[tid] - router_e2e,
               "router": router_e2e - route - bwait, "route": route,
               "pipe": bwait - server_e2e,
               "backend": server_e2e - sum(children.values())}
        row.update(children)
        rows.append(row)
    rows.sort(key=lambda r: r["latency"])
    middle = rows[len(rows) * 2 // 5: max(len(rows) * 3 // 5,
                                          len(rows) * 2 // 5 + 1)]
    out = {f"path.{k}_us": statistics.mean(r[k] for r in middle)
           if middle else 0.0 for k in PATH_SERVED}
    out["path.traces"] = len(rows)
    return out


# ---------------------------------------------------------------------------
# Workloads


def run_served(bins, workload, seed, seconds, trace):
    reference = load_reference(os.path.join(REFERENCE_DIR, "served.json"))
    if not trace:
        return served_measure(bins, workload, seed, seconds, False, reference)
    base = untraced_baseline(bins, workload, seed, seconds)
    result = served_measure(bins, workload, seed, seconds, True, reference)
    lines = result.pop("lines")
    probe_path = os.path.join(BUILD_DIR, "probe.txt")
    if workload == "hot_routed":
        write_lines(probe_path, lines)
        probe = run_native(bins, ["probe", "--hot", "--lines", probe_path])
    else:
        write_lines(probe_path, probe_sample(lines))
        probe = run_native(bins, ["probe", "--lines", probe_path])
    result["layers"].update(probe)
    finish_trace(result, base)
    return result


def probe_sample(corpus):
    """A fixed-share sample of each kind, in corpus order, for the
    in-process replay (the whole corpus would take longer than the run)."""
    kinds = {"off": 24, "on": 12, "run": 6, "tecfan": 2}
    out = []
    for line in corpus:
        kind = kind_of(line)
        if kinds[kind] > 0:
            kinds[kind] -= 1
            out.append(line)
    return out


def paper_pass(bins, trace, reference, problems):
    """One run of the protocol, checked against the reference."""
    cpu0 = cpu_times()
    r = run_native(bins, ["batch", "--setups", str(BATCH_SETUPS)] +
                   (["--layers"] if trace else []))
    steal = steal_frac(cpu0, cpu_times())
    got = {res["id"]: res for res in r["results"]}
    if sorted(got) != sorted(reference["results"]):
        problems.append("paper_batch ran a different set of simulations")
    for rid, want in reference["results"].items():
        if rid in got:
            compare_fields(rid, got[rid], want, problems)
    for key in ("intervals", "decisions"):
        if r[key] != reference[key]:
            problems.append(f"{key} {r[key]} != reference {reference[key]}")
    e2e = {"rps": r["intervals"] / r["wall_s"], "p50_us": r["p50_us"],
           "p99_us": r["p99_us"],
           "cpu_us_per_op": r["cpu_s"] * 1e6 / r["intervals"],
           "setup_s": statistics.median(r["setup_s"]),
           "rss_mib": r["rss_mib"]}
    layers = r.get("layers", {})
    if trace:
        layers["path.residual_us"] = r["wall_s"] * 1e6 - sum(
            layers[k] for k in ("path.base_us", "path.decide_us",
                                "path.model_us", "path.plant_us"))
    return {"e2e": e2e, "layers": layers, "steal_frac": steal,
            "wall_s": r["wall_s"], "attempted": len(reference["results"]),
            "failed": len(reference["results"]) - len(got),
            "intervals": r["intervals"]}


def run_paper_batch(bins, seed, seconds, trace):
    """One run of the protocol: at 20-65 s a pass, a second would not fit."""
    reference = load_reference(os.path.join(REFERENCE_DIR, "paper_batch.json"))
    base = untraced_baseline(bins, "paper_batch", seed, seconds) if trace else None
    problems = []
    passes = [paper_pass(bins, trace, reference, problems)]
    result = combine(passes, problems, intervals=passes[0]["intervals"])
    if trace:
        finish_trace(result, base)
    return result


def untraced_baseline(bins, workload, seed, seconds):
    """An untraced run made now, with the traced run's seed and seconds:
    the base of the tracing overhead."""
    return run_workload(bins, workload, seed, seconds, False)


def finish_trace(result, base):
    """Residual of the path self times against the traced pass's own p50
    (the self times come from that pass), and the tracing overhead: each
    end-to-end metric of the traced pass over the untraced run's. The
    untraced run's checks count too."""
    result["problems"] += base["problems"]
    layers, e2e, base = result["layers"], result["e2e"], base["e2e"]
    if "path.residual_us" not in layers:
        layers["path.residual_us"] = e2e["p50_us"] - sum(
            layers.get(f"path.{k}_us", 0.0) for k in PATH_SERVED)
    for name, _ in E2E:
        layers["trace.overhead_" + name] = (e2e[name] / base[name]
                                            if base[name] else 0.0)


def run_workload(bins, workload, seed, seconds, trace):
    if workload == "paper_batch":
        result = run_paper_batch(bins, seed, seconds, trace)
    else:
        result = run_served(bins, workload, seed, seconds, trace)
    result.pop("lines", None)
    return result


def report(workload, seed, trace, result, stamp):
    """Prints the metrics by name and unit; returns the result object."""
    units = dict(PER_LAYER if trace else E2E)
    values = result["layers"] if trace else result["e2e"]
    metrics = {}
    for name, unit in (PER_LAYER if trace else E2E):
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"{workload} {name} = {value:.6g} {units[name]}")
    for problem in list(dict.fromkeys(result["problems"]))[:20]:
        print(f"{workload} MISMATCH: {problem}")
    context = dict(stamp, workload=workload, seed=seed, trace=trace,
                   **result["context"])
    print("context " + json.dumps(context))
    return {"correct": not result["problems"],
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


# ---------------------------------------------------------------------------
# Recording the reference


def record_reference(bins, workers=4):
    """Computes every valid served key on one tecfand, and one paper_batch
    run, and writes them as the reference."""
    lines = (eq_universe(False) + eq_universe(True) +
             [run_line(p, wl, th, fan) for wl, th in CASES
              for fan in range(FAN_LEVELS) for p in REACTIVE + ("tecfan",)])
    fleet = Fleet(bins, False)
    fleet.start()
    try:
        path = os.path.join(BUILD_DIR, "record.txt")
        write_lines(path, lines)
        out = os.path.join(BUILD_DIR, "record.tsv")
        port = fleet.backend_ports[0]
        prime(bins, fleet, lines)
        r = load(bins, port, path, workers, 1, once=True, replies=out)
        if r["ok"] != len(lines):
            raise BenchError(f"recording failed: {r}")
        replies = read_replies(out, lines)
    finally:
        fleet.stop()
    served = {line: reply_fields(replies[line]) for line in lines}
    with open(os.path.join(REFERENCE_DIR, "served.json"), "w") as f:
        json.dump(served, f, indent=0, sort_keys=True)
    r = run_native(bins, ["batch", "--setups", "1"])
    batch = {"intervals": r["intervals"], "decisions": r["decisions"],
             "results": {res["id"]: res for res in r["results"]}}
    with open(os.path.join(REFERENCE_DIR, "paper_batch.json"), "w") as f:
        json.dump(batch, f, indent=1, sort_keys=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=None,
                        help="directory holding served.json and "
                             "paper_batch.json (default: perfbench/reference)")
    parser.add_argument("--record-reference", action="store_true",
                        help="recompute the reference from this build")
    args = parser.parse_args()

    global REFERENCE_DIR
    if args.reference:
        REFERENCE_DIR = os.path.abspath(args.reference)
    try:
        bins = build()
        if args.record_reference:
            record_reference(bins)
            return 0
        stamp = host_stamp()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for workload in workloads:
            result = run_workload(bins, workload, args.seed, args.seconds,
                                  bool(args.trace))
            results.append(report(workload, args.seed, bool(args.trace),
                                  result, stamp))
    except (BenchError, OSError, subprocess.SubprocessError, ValueError,
            KeyError) as e:
        log(f"perfbench: {e}")
        return 1
    final = results[0]
    if len(results) > 1:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{w}.{k}": v for w, r in zip(workloads, results)
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
