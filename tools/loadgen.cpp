// loadgen — closed-loop load generator for tecfand, the serving-path
// benchmark.
//
// Opens C connections to a local tecfand (or spawns an in-process server
// when --port is not given) and drives them closed-loop over the shared
// request grid (src/service/request_grid.h). Connection c sends keys c,
// c+C, c+2C, ...: a warm run cycles that stripe for --duration-s, and a
// --no-warmup run sends it once, so a cold run is a fixed-count pass of
// misses. Reports throughput, p50/p99 latency, `error` replies and the
// daemon's cache hit rate to stdout and, in minimal JSON, to
// BENCH_serving.json (--out to override); exits 1 if any request failed.
// scripts/bench.sh builds BENCH_serving.json and BENCH_cluster.json from
// loadgen runs.
//
//   loadgen                              # in-process server, 4 conns, 3 s
//   loadgen --port 7411 --connections 8 --duration-s 10
//   loadgen --keys 1024 --no-warmup      # one cold pass over 1024 keys
//
// Fleet mode (--router) spawns N in-process tecfand backends plus a
// tecrouter front-end and drives the router, so sharded serving can be
// compared against direct serving with the same flags:
//
//   loadgen --router --backends 4        # 4-shard fleet behind a router
//   loadgen --router --backends 2 --hedge-ms 0   # with auto-p99 hedging
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cli_flags.h"
#include "cluster/router.h"
#include "service/framing.h"
#include "service/request.h"
#include "service/request_grid.h"
#include "service/server.h"
#include "util/stats.h"

namespace {

using namespace tecfan;
using Clock = std::chrono::steady_clock;

struct Args {
  std::optional<std::uint16_t> port;  // unset: spawn in-process
  int connections = 4;
  double duration_s = 3.0;
  int keys = 8;
  double sim_cap_s = 0.05;  // in-process ServerOptions.max_sim_time_s
  std::size_t workers = service::default_worker_count();
  std::size_t queue = 64;
  std::size_t cache = 4096;
  bool router = false;  // fleet mode: backends + tecrouter in-process
  int backends = 2;
  double hedge_ms = -1.0;
  std::uint64_t trace_every = 0;  // in-process tiers sample every Nth
  bool warmup = true;
  bool check_p99 = false;
  std::string out = "BENCH_serving.json";
  bool help = false;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: loadgen [--port N] [--connections C] [--duration-s S]\n"
      "               [--keys K] [--sim-cap-s S] [--workers N] [--queue N]\n"
      "               [--cache N] [--router] [--backends N] [--hedge-ms X]\n"
      "               [--trace-every N] [--no-warmup] [--check-p99]\n"
      "               [--out FILE]\n"
      "  --port N         target an external tecfand or tecrouter\n"
      "                   (default: in-process)\n"
      "  --connections C  closed-loop client connections (default 4);\n"
      "                   connection c sends keys c, c+C, c+2C, ...\n"
      "  --duration-s S   measured interval (default 3); caps the one\n"
      "                   pass of a --no-warmup run\n"
      "  --keys K         distinct requests in the working set (8).\n"
      "                   Mostly equilibrium points; every 16th key is a\n"
      "                   `run` and every 64th a `sweep`, so large sets\n"
      "                   exercise all three compute kinds\n"
      "  --sim-cap-s S    in-process simulated-time cap per run/sweep\n"
      "                   level (0.05); keeps run/sweep keys serveable\n"
      "                   at benchmark rates\n"
      "  --workers N      in-process worker pool size, total across the\n"
      "                   fleet in --router mode (default: hardware\n"
      "                   threads, clamped to [2,16])\n"
      "  --queue N        in-process pending-request bound (64)\n"
      "  --cache N        in-process result cache capacity per backend\n"
      "                   (4096)\n"
      "  --router         fleet mode: spawn --backends in-process tecfand\n"
      "                   servers plus a tecrouter and drive the router\n"
      "  --backends N     fleet size for --router (default 2)\n"
      "  --hedge-ms X     router hedged retry: -1 off, 0 auto-p99, >0 fixed\n"
      "  --trace-every N  sample every Nth compute request for cross-tier\n"
      "                   tracing in the in-process tiers (0 = off);\n"
      "                   sampled-trace counts land in the JSON report\n"
      "  --no-warmup      skip the cache-priming pass and send each key\n"
      "                   once (a cold, fixed-count pass)\n"
      "  --check-p99      exit non-zero when the server-side e2e hit p99\n"
      "                   disagrees with the client-side hit p99\n"
      "  --out FILE       JSON report path (BENCH_serving.json)\n");
}

bool parse(int argc, char** argv, Args& out) {
  const bool ok = cli::parse_flags(argc, argv, out.help, [&out](auto& f) {
    if (f.is("--port")) return f.port(out.port, /*allow_ephemeral=*/false);
    if (f.is("--connections")) return f.number(out.connections, 1, 4096);
    if (f.is("--duration-s")) return f.number(out.duration_s, 1e-3, 1e6);
    if (f.is("--keys")) return f.number(out.keys, 1, 1 << 20);
    if (f.is("--sim-cap-s")) return f.number(out.sim_cap_s, 1e-6, 1e6);
    if (f.is("--workers")) return f.number(out.workers, 1, 1024);
    if (f.is("--queue")) return f.number(out.queue, 1, 1 << 20);
    if (f.is("--cache")) return f.number(out.cache, 1, 1 << 24);
    if (f.is("--router")) return f.set(out.router);
    if (f.is("--backends")) return f.number(out.backends, 1, 64);
    if (f.is("--hedge-ms")) return f.number(out.hedge_ms, -1.0, 1e9);
    if (f.is("--trace-every")) return f.number(out.trace_every);
    if (f.is("--no-warmup")) return f.set(out.warmup, false);
    if (f.is("--check-p99")) return f.set(out.check_p99);
    if (f.is("--out")) return f.text(out.out);
    return f.unknown();
  });
  if (ok && out.router && out.port) {
    std::fprintf(stderr, "error: --router spawns its own fleet; drop --port\n");
    return false;
  }
  return ok;
}

/// Resident set size of this process (which, with the in-process server, is
/// the whole serving stack) from /proc/self/statm; 0 if unreadable.
std::size_t process_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  if (!statm) return 0;
  std::size_t vm_pages = 0, rss_pages = 0;
  statm >> vm_pages >> rss_pages;
  const long page = ::sysconf(_SC_PAGESIZE);
  if (page <= 0) return 0;
  return rss_pages * static_cast<std::size_t>(page);
}

/// Blocking line-protocol client over a loopback TCP connection
/// (service/framing.h does the socket work: MSG_NOSIGNAL sends, buffered
/// line reads).
class Client {
 public:
  bool connect_to(std::uint16_t port) {
    fd_ = service::connect_loopback(port);
    reader_.reset(fd_);
    return fd_ >= 0;
  }

  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// Send one request line, wait for the response line; empty on error.
  std::string round_trip(const std::string& line) {
    std::string msg = line;
    msg += '\n';
    if (!service::send_all(fd_, msg)) return {};
    return reader_.read_line().value_or(std::string{});
  }

 private:
  int fd_ = -1;
  service::LineReader reader_;
};

/// JSON/report names for the request grid's compute kinds (indexes match
/// service::GridKind).
const char* const kKindNames[] = {"equilibrium", "run", "sweep"};

double get_field(const service::Response& r, const char* key) {
  if (auto v = r.field(key)) return std::atof(v->c_str());
  return 0.0;
}

/// The serving-path stage histograms the server exports via `metrics`,
/// in pipeline order (see Server::metrics()), plus the cluster stages a
/// tecrouter exports (zero-count and skipped when targeting a tecfand).
const char* const kStages[] = {"parse",        "cache_probe", "queue_wait",
                               "compute",      "serialize",   "route",
                               "backend_wait", "e2e_hit",     "e2e_miss"};

/// One stage's summary pulled out of a `metrics` response.
struct StageSummary {
  double count = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double mean_us = 0.0;
  double max_us = 0.0;
  std::string buckets;  // "upper_us:count,..." (may be empty)
};

StageSummary stage_summary(const service::Response& metrics,
                           const std::string& stage) {
  StageSummary s;
  s.count = get_field(metrics, (stage + "_count").c_str());
  s.p50_us = get_field(metrics, (stage + "_p50_us").c_str());
  s.p90_us = get_field(metrics, (stage + "_p90_us").c_str());
  s.p99_us = get_field(metrics, (stage + "_p99_us").c_str());
  s.p999_us = get_field(metrics, (stage + "_p999_us").c_str());
  s.mean_us = get_field(metrics, (stage + "_mean_us").c_str());
  s.max_us = get_field(metrics, (stage + "_max_us").c_str());
  if (auto b = metrics.field(stage + "_buckets")) s.buckets = *b;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args) || args.help) {
    usage();
    return args.help ? 0 : 2;
  }

  service::ignore_sigpipe();

  // Spawn the in-process serving stack unless pointed at an external
  // daemon: one tecfand (default), or --backends tecfand shards plus a
  // tecrouter front-end (--router). The fleet splits the worker budget so
  // direct and routed runs compare at equal total worker count.
  std::vector<std::unique_ptr<service::Server>> fleet;
  std::unique_ptr<cluster::Router> router;
  std::uint16_t port = 0;
  if (args.port) {
    port = *args.port;
  } else {
    const std::size_t n = args.router
                              ? static_cast<std::size_t>(args.backends)
                              : 1;
    const std::size_t workers_each =
        std::max<std::size_t>(1, args.workers / n);
    std::vector<std::uint16_t> backend_ports;
    for (std::size_t b = 0; b < n; ++b) {
      service::ServerOptions options;
      options.workers = workers_each;
      options.queue_capacity = args.queue;
      options.cache_capacity = args.cache;
      options.max_sim_time_s = args.sim_cap_s;
      options.instance_name = "shard" + std::to_string(b);
      // Behind an in-process router the router heads sampling, so only a
      // direct in-process server samples at the entry point itself.
      if (!args.router) options.trace_every = args.trace_every;
      fleet.push_back(std::make_unique<service::Server>(options));
      backend_ports.push_back(fleet.back()->start());
    }
    if (args.router) {
      cluster::RouterOptions options;
      options.backend_ports = backend_ports;
      options.hedge_ms = args.hedge_ms;
      options.trace_every = args.trace_every;
      router = std::make_unique<cluster::Router>(options);
      port = router->start();
      std::fprintf(stderr,
                   "loadgen: in-process tecrouter on port %u over %zu "
                   "backends (%zu workers each)\n",
                   port, n, workers_each);
    } else {
      port = backend_ports.front();
      std::fprintf(stderr,
                   "loadgen: in-process tecfand on port %u (%zu workers)\n",
                   port, args.workers);
    }
  }

  const std::vector<service::GridRequest> requests =
      service::request_grid(args.keys);

  // Warmup: prime every key once so the measured interval exercises the
  // serving path, not the simulator.
  if (args.warmup) {
    Client warm;
    if (!warm.connect_to(port)) {
      std::fprintf(stderr, "loadgen: cannot connect to port %u\n", port);
      return 1;
    }
    const auto t0 = Clock::now();
    for (const auto& r : requests) {
      const std::string reply = warm.round_trip(r.line);
      const service::Response resp = service::parse_response(reply);
      if (resp.status != service::Response::Status::kOk) {
        std::fprintf(stderr, "loadgen: warmup request failed: %s\n",
                     reply.c_str());
        return 1;
      }
    }
    std::fprintf(stderr, "loadgen: warmed %zu keys in %.2f s\n",
                 requests.size(),
                 std::chrono::duration<double>(Clock::now() - t0).count());
  }

  // Measured closed-loop interval: connection c sends keys c, c+C, ...
  // until the deadline, or, without a warmup, until its stripe is sent
  // once. Replies are classified client-side: `ok cached=1 ...` round
  // trips are cache hits, plain `ok` are misses, so the client-side
  // percentiles can be cross-checked against the server's hit/miss-split
  // e2e histograms. Any other reply, or a lost connection, is an error
  // and stays out of the latency samples.
  struct PerConn {
    std::vector<double> all;   // every ok round trip
    std::vector<double> hit;   // ok, served from the result cache
    std::vector<double> miss;  // ok, computed
    std::vector<double> by_kind[3];  // split by request kind
    std::uint64_t busy = 0;
    std::uint64_t errors = 0;
  };
  std::vector<PerConn> per_conn(static_cast<std::size_t>(args.connections));
  std::vector<std::thread> clients;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.duration_s));
  for (int c = 0; c < args.connections; ++c) {
    clients.emplace_back([&, c] {
      PerConn& mine = per_conn[static_cast<std::size_t>(c)];
      Client client;
      if (!client.connect_to(port)) {
        ++mine.errors;
        return;
      }
      for (std::size_t i = static_cast<std::size_t>(c);
           args.warmup || i < requests.size();
           i += static_cast<std::size_t>(args.connections)) {
        const service::GridRequest& req = requests[i % requests.size()];
        const auto t0 = Clock::now();
        if (t0 >= deadline) break;
        const std::string reply = client.round_trip(req.line);
        const auto t1 = Clock::now();
        if (reply.empty()) {
          ++mine.errors;
          break;
        }
        if (reply == "busy") {
          ++mine.busy;
          continue;
        }
        if (reply.rfind("ok", 0) != 0) {
          ++mine.errors;
          continue;
        }
        const double us =
            std::chrono::duration<double, std::micro>(t1 - t0).count();
        mine.all.push_back(us);
        mine.by_kind[static_cast<int>(req.kind)].push_back(us);
        (reply.rfind("ok cached=1", 0) == 0 ? mine.hit : mine.miss)
            .push_back(us);
      }
    });
  }
  for (auto& t : clients) t.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<double> all, hits, misses;
  std::vector<double> by_kind[3];
  std::size_t keys_by_kind[3] = {0, 0, 0};
  for (const auto& r : requests) ++keys_by_kind[static_cast<int>(r.kind)];
  std::uint64_t busy_total = 0, errors_total = 0;
  for (const auto& conn : per_conn) {
    all.insert(all.end(), conn.all.begin(), conn.all.end());
    hits.insert(hits.end(), conn.hit.begin(), conn.hit.end());
    misses.insert(misses.end(), conn.miss.begin(), conn.miss.end());
    for (int k = 0; k < 3; ++k)
      by_kind[k].insert(by_kind[k].end(), conn.by_kind[k].begin(),
                        conn.by_kind[k].end());
    busy_total += conn.busy;
    errors_total += conn.errors;
  }
  if (all.empty()) {
    std::fprintf(stderr, "loadgen: no requests completed (%llu errors)\n",
                 static_cast<unsigned long long>(errors_total));
    return 1;
  }

  // Server-side cache/memory statistics and the per-stage latency
  // histograms accumulated during the run. In router mode the protocol
  // `stats` verb answers with fleet topology, so the cache/memory numbers
  // are aggregated straight from the in-process backend shards instead.
  double hit_rate = 0.0, cache_hits = 0.0, cache_misses = 0.0;
  double workers = 0.0, engine_bytes = 0.0, workspace_bytes = 0.0;
  double router_failovers = 0.0, router_hedges = 0.0;
  // Per-tier sampled-trace counts: head decisions at the tier that made
  // them, plus adopted contexts at the server tier (a backend behind a
  // sampling router participates without heading).
  std::uint64_t traces_router = 0, traces_server = 0;
  service::Response server_metrics;
  bool have_metrics = false;
  {
    Client statc;
    if (statc.connect_to(port)) {
      const service::Response stats =
          service::parse_response(statc.round_trip("stats"));
      hit_rate = get_field(stats, "cache_hit_rate");
      cache_hits = get_field(stats, "cache_hits");
      cache_misses = get_field(stats, "cache_misses");
      workers = get_field(stats, "workers");
      engine_bytes = get_field(stats, "engine_bytes");
      workspace_bytes = get_field(stats, "workspace_bytes");
      router_failovers = get_field(stats, "failovers");
      router_hedges = get_field(stats, "hedges");
      // External target: the tier that answered owns the count (a
      // tecrouter reports its own head decisions, a tecfand its own).
      traces_server = static_cast<std::uint64_t>(
          get_field(stats, "traces_sampled"));
      server_metrics = service::parse_response(statc.round_trip("metrics"));
      have_metrics =
          server_metrics.status == service::Response::Status::kOk;
      statc.round_trip("quit");
    }
  }
  if (router) {
    cache_hits = cache_misses = 0.0;
    workers = engine_bytes = workspace_bytes = 0.0;
    traces_router = router->tracer().sampled_traces();
    traces_server = 0;
    for (const auto& srv : fleet) {
      const service::Server::Stats s = srv->stats();
      cache_hits += static_cast<double>(s.cache.hits);
      cache_misses += static_cast<double>(s.cache.misses);
      workers += static_cast<double>(s.pool.workers);
      engine_bytes += static_cast<double>(s.engine_bytes);
      workspace_bytes =
          std::max(workspace_bytes, static_cast<double>(s.workspace_bytes));
      traces_server += srv->tracer().sampled_traces() +
                       srv->tracer().adopted_traces();
    }
    hit_rate = cache_hits + cache_misses > 0
                   ? cache_hits / (cache_hits + cache_misses)
                   : 0.0;
  }
  const std::size_t rss_bytes = process_rss_bytes();

  const double throughput = static_cast<double>(all.size()) / elapsed;
  const double p50 = percentile(all, 50.0);
  const double p99 = percentile(all, 99.0);
  const double mean_us = mean(all);
  const double client_hit_p50 = hits.empty() ? 0.0 : percentile(hits, 50.0);
  const double client_hit_p99 = hits.empty() ? 0.0 : percentile(hits, 99.0);
  const double client_miss_p50 =
      misses.empty() ? 0.0 : percentile(misses, 50.0);
  const double client_miss_p99 =
      misses.empty() ? 0.0 : percentile(misses, 99.0);

  // Cross-check: the server's e2e_hit span is a strict subset of the
  // client's hit round trip, so its p99 must not exceed the client-side
  // hit p99 plus slack for histogram bucket resolution (~19% per bucket)
  // and scheduling jitter. A violation means the spans are mislabelled or
  // a stage is unaccounted for.
  const StageSummary server_hit =
      have_metrics ? stage_summary(server_metrics, "e2e_hit") : StageSummary{};
  const bool crosscheck_applicable = have_metrics && !hits.empty() &&
                                     server_hit.count > 0;
  const double crosscheck_bound_us = client_hit_p99 * 1.25 + 10.0;
  const bool crosscheck_pass =
      crosscheck_applicable && server_hit.p99_us > 0.0 &&
      server_hit.p99_us <= crosscheck_bound_us;

  std::printf("== serving-path benchmark (loadgen) ==\n");
  std::printf("mode              %s\n",
              router ? "router" : (args.port ? "external" : "direct"));
  if (router) {
    const cluster::Router::Stats rs = router->stats();
    std::printf("fleet             %zu backends (%zu up), %llu failovers, "
                "%llu hedges\n",
                rs.backends, rs.backends_up,
                static_cast<unsigned long long>(rs.failovers),
                static_cast<unsigned long long>(rs.hedges));
  }
  std::printf("connections       %d\n", args.connections);
  std::printf("distinct keys     %d\n", args.keys);
  std::printf("duration          %.2f s\n", elapsed);
  std::printf("requests          %zu\n", all.size());
  std::printf("busy rejections   %llu\n",
              static_cast<unsigned long long>(busy_total));
  std::printf("errors            %llu\n",
              static_cast<unsigned long long>(errors_total));
  std::printf("throughput        %.0f req/s\n", throughput);
  std::printf("latency mean      %.1f us\n", mean_us);
  std::printf("latency p50       %.1f us\n", p50);
  std::printf("latency p99       %.1f us\n", p99);
  if (!hits.empty())
    std::printf("hit p50/p99       %.1f / %.1f us (%zu round trips)\n",
                client_hit_p50, client_hit_p99, hits.size());
  if (!misses.empty())
    std::printf("miss p50/p99      %.1f / %.1f us (%zu round trips)\n",
                client_miss_p50, client_miss_p99, misses.size());
  for (int k = 0; k < 3; ++k) {
    if (by_kind[k].empty()) continue;
    std::printf("%-11s p50/p99 %.1f / %.1f us (%zu round trips, %zu keys)\n",
                kKindNames[k], percentile(by_kind[k], 50.0),
                percentile(by_kind[k], 99.0), by_kind[k].size(),
                keys_by_kind[k]);
  }
  std::printf("cache hit rate    %.1f %%\n", 100.0 * hit_rate);
  std::printf("workers           %.0f\n", workers);
  if (args.trace_every > 0)
    std::printf("traces sampled    router %llu, server %llu (every %llu)\n",
                static_cast<unsigned long long>(traces_router),
                static_cast<unsigned long long>(traces_server),
                static_cast<unsigned long long>(args.trace_every));
  if (have_metrics) {
    std::printf("server stages     (count / p50 / p99 / max us)\n");
    for (const char* stage : kStages) {
      const StageSummary s = stage_summary(server_metrics, stage);
      if (s.count == 0) continue;
      std::printf("  %-12s    %.0f / %.1f / %.1f / %.1f\n", stage, s.count,
                  s.p50_us, s.p99_us, s.max_us);
    }
  }
  if (crosscheck_applicable)
    std::printf("p99 cross-check   server e2e_hit %.1f us vs client hit "
                "%.1f us (bound %.1f us) [%s]\n",
                server_hit.p99_us, client_hit_p99, crosscheck_bound_us,
                crosscheck_pass ? "ok" : "FAIL");
  std::printf("engine memory     %.2f MiB (shared, one copy)\n",
              engine_bytes / (1024.0 * 1024.0));
  std::printf("workspace memory  %.1f KiB (per worker, max observed)\n",
              workspace_bytes / 1024.0);
  if (rss_bytes > 0)
    std::printf("process RSS       %.1f MiB%s\n",
                static_cast<double>(rss_bytes) / (1024.0 * 1024.0),
                !args.port ? " (loadgen + in-process server)" : "");

  std::ofstream json(args.out);
  if (json) {
    json.precision(6);
    json << "{\n"
         << "  \"bench\": \"serving\",\n"
         << "  \"mode\": \""
         << (router ? "router" : (args.port ? "external" : "direct"))
         << "\",\n"
         << "  \"backends\": " << (router ? args.backends : 1) << ",\n"
         << "  \"router_failovers\": " << router_failovers << ",\n"
         << "  \"router_hedges\": " << router_hedges << ",\n"
         << "  \"trace_every\": " << args.trace_every << ",\n"
         << "  \"traces_sampled_router\": " << traces_router << ",\n"
         << "  \"traces_sampled_server\": " << traces_server << ",\n"
         << "  \"connections\": " << args.connections << ",\n"
         << "  \"distinct_keys\": " << args.keys << ",\n"
         << "  \"duration_s\": " << elapsed << ",\n"
         << "  \"requests\": " << all.size() << ",\n"
         << "  \"busy_rejections\": " << busy_total << ",\n"
         << "  \"errors\": " << errors_total << ",\n"
         << "  \"throughput_rps\": " << throughput << ",\n"
         << "  \"latency_mean_us\": " << mean_us << ",\n"
         << "  \"latency_p50_us\": " << p50 << ",\n"
         << "  \"latency_p99_us\": " << p99 << ",\n"
         << "  \"client_hits\": " << hits.size() << ",\n"
         << "  \"client_misses\": " << misses.size() << ",\n"
         << "  \"latency_hit_p50_us\": " << client_hit_p50 << ",\n"
         << "  \"latency_hit_p99_us\": " << client_hit_p99 << ",\n"
         << "  \"latency_miss_p50_us\": " << client_miss_p50 << ",\n"
         << "  \"latency_miss_p99_us\": " << client_miss_p99 << ",\n"
         << "  \"kind_split\": {\n";
    for (int k = 0; k < 3; ++k) {
      const auto& v = by_kind[k];
      json << "    \"" << kKindNames[k] << "\": {\n"
           << "      \"keys\": " << keys_by_kind[k] << ",\n"
           << "      \"requests\": " << v.size() << ",\n"
           << "      \"p50_us\": " << (v.empty() ? 0.0 : percentile(v, 50.0))
           << ",\n"
           << "      \"p99_us\": " << (v.empty() ? 0.0 : percentile(v, 99.0))
           << "\n    }" << (k + 1 < 3 ? ",\n" : "\n");
    }
    json << "  },\n"
         << "  \"cache_hits\": " << cache_hits << ",\n"
         << "  \"cache_misses\": " << cache_misses << ",\n"
         << "  \"cache_hit_rate\": " << hit_rate << ",\n"
         << "  \"workers\": " << workers << ",\n"
         << "  \"engine_bytes\": " << engine_bytes << ",\n"
         << "  \"workspace_bytes\": " << workspace_bytes << ",\n"
         << "  \"process_rss_bytes\": " << rss_bytes << ",\n";
    json << "  \"p99_crosscheck\": {\n"
         << "    \"applicable\": " << (crosscheck_applicable ? "true" : "false")
         << ",\n"
         << "    \"server_e2e_hit_p99_us\": " << server_hit.p99_us << ",\n"
         << "    \"client_hit_p99_us\": " << client_hit_p99 << ",\n"
         << "    \"bound_us\": " << crosscheck_bound_us << ",\n"
         << "    \"pass\": " << (crosscheck_pass ? "true" : "false") << "\n"
         << "  },\n";
    json << "  \"server_metrics\": {";
    bool first = true;
    for (const char* stage : kStages) {
      const StageSummary s =
          have_metrics ? stage_summary(server_metrics, stage) : StageSummary{};
      json << (first ? "\n" : ",\n");
      first = false;
      json << "    \"" << stage << "\": {\n"
           << "      \"count\": " << s.count << ",\n"
           << "      \"p50_us\": " << s.p50_us << ",\n"
           << "      \"p90_us\": " << s.p90_us << ",\n"
           << "      \"p99_us\": " << s.p99_us << ",\n"
           << "      \"p999_us\": " << s.p999_us << ",\n"
           << "      \"mean_us\": " << s.mean_us << ",\n"
           << "      \"max_us\": " << s.max_us << ",\n"
           << "      \"buckets\": \"" << s.buckets << "\"\n"
           << "    }";
    }
    json << "\n  }\n"
         << "}\n";
    std::fprintf(stderr, "loadgen: wrote %s\n", args.out.c_str());
  }

  if (errors_total > 0) {
    std::fprintf(stderr, "loadgen: %llu requests failed\n",
                 static_cast<unsigned long long>(errors_total));
    return 1;
  }
  if (args.check_p99 && !crosscheck_pass) {
    std::fprintf(stderr,
                 crosscheck_applicable
                     ? "loadgen: p99 cross-check FAILED\n"
                     : "loadgen: p99 cross-check has no data (no cache-hit "
                       "round trips or no server metrics)\n");
    return 1;
  }
  return 0;
}
