// Cluster serving benchmark: direct tecfand vs tecrouter over fleets of
// 1 / 2 / 4 in-process backends, on the cached and miss paths, plus a
// failover run that kills a backend mid-stream and counts client-visible
// errors (must be zero). Every scenario drives the fleet through real
// loopback TCP with closed-loop line-protocol clients, so the router
// column pays its true forwarding cost (event loop, backend pipelining,
// batched writes). Also asserts routed replies are bit-identical to
// direct serving over TCP. Writes BENCH_cluster.json (--out to override); scripts/bench.sh
// runs this from a Release build and enforces a routed/direct floor.
//
// The miss corpus is the loadgen --keys request grid (equilibrium + run +
// sweep kinds, >= 1k requests per scenario for a meaningful p99); the
// backends run the full 4x4-tile model those grid lines expect, with a
// result cache much smaller than the working set so repeated grid keys
// stay LRU-evicted misses.
//
// Numbers are recorded honestly for the machine they ran on: on a single
// core the fleet shares one CPU, so routed throughput measures router
// overhead, not horizontal scaling — the `cores` field says which story
// the file tells.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <optional>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "service/framing.h"
#include "service/request.h"
#include "service/request_grid.h"
#include "service/server.h"

namespace {

using namespace tecfan;

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

service::ServerOptions backend_options() {
  service::ServerOptions o;
  o.tiles_x = 4;  // 16 cores: the loadgen grid's threads=8/16 lines are
  o.tiles_y = 4;  // valid on this floorplan
  o.workers = 2;
  o.queue_capacity = 64;
  // Far below the grid's distinct-key count, so a key recurring in the
  // miss pass has been LRU-evicted by the time it comes back (its repeat
  // distance is dozens of requests even on a per-shard slice of the
  // stream) and still pays the compute; the 32-key cached working set
  // fits with room to spare.
  o.cache_capacity = 48;
  o.max_sim_time_s = 0.05;
  return o;
}

/// The benchmark working set, drawn from the same deterministic grid
/// loadgen's --keys flag walks (BENCH_serving and BENCH_cluster measure
/// the same corpus).
struct Corpus {
  std::vector<std::string> cached;  // 32 equilibrium keys, reused hot
  std::vector<std::string> miss;    // one grid pass, >= 1k requests
  std::size_t miss_distinct = 0;    // distinct canonical keys in `miss`
};

Corpus make_corpus(int miss_requests) {
  // Walk the grid past `miss_requests` keys because the corpus keeps only
  // the lines the Table I workload set can serve: the grid's threads=8
  // equilibrium keys have no SPLASH-2 anchor case and would come back as
  // protocol errors, which is loadgen's business to report, not a miss
  // benchmark's.
  Corpus c;
  std::set<std::string> keys;
  for (const auto& r : service::request_grid(2 * miss_requests)) {
    if (r.line.find("threads=8") != std::string::npos) continue;
    if (c.miss.size() == static_cast<std::size_t>(miss_requests)) break;
    c.miss.push_back(r.line);
    keys.insert(
        service::canonical_key(service::parse_request(r.line).request));
    if (c.cached.size() < 32 && r.kind == service::GridKind::kEquilibrium)
      c.cached.push_back(r.line);
  }
  c.miss_distinct = keys.size();
  return c;
}

struct PathNumbers {
  double rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
};

double percentile(std::vector<double>& us, double p) {
  if (us.empty()) return 0.0;
  std::sort(us.begin(), us.end());
  const std::size_t idx = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(us.size() - 1) + 0.5);
  return us[std::min(idx, us.size() - 1)];
}

/// One persistent raw line-protocol connection, loadgen's client shape:
/// the bench measures the serving path, not client bookkeeping.
struct RawConn {
  explicit RawConn(std::uint16_t port)
      : fd(service::connect_loopback(port)), reader(fd) {}
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  /// Send one request line and wait (up to 60 s) for its reply.
  std::optional<std::string> round_trip(const std::string& line) {
    if (fd < 0 || !service::send_all(fd, line + "\n")) return std::nullopt;
    return reader.read_line(std::chrono::steady_clock::now() +
                            std::chrono::seconds(60));
  }

  int fd;
  service::LineReader reader;
};

/// Drive `lines` through the port with `threads` closed-loop clients;
/// each client cycles its slice until `duration_s` elapses (duration_s
/// <= 0: exactly one pass, for miss-path runs where a repeat would be a
/// hit).
PathNumbers drive(std::uint16_t port, const std::vector<std::string>& lines,
                  int threads, double duration_s) {
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(threads));
  std::vector<std::uint64_t> errs(static_cast<std::size_t>(threads), 0);
  std::vector<std::thread> workers;
  const double t0 = now_seconds();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      RawConn conn(port);
      auto& my_errs = errs[static_cast<std::size_t>(t)];
      if (conn.fd < 0) {
        ++my_errs;
        return;
      }
      auto& samples = lat[static_cast<std::size_t>(t)];
      std::size_t i = static_cast<std::size_t>(t);
      for (;;) {
        if (duration_s > 0) {
          if (now_seconds() - t0 >= duration_s) break;
        } else if (i >= lines.size()) {
          break;  // one pass over this thread's slice
        }
        const std::string& line = lines[i % lines.size()];
        i += static_cast<std::size_t>(threads);
        const double s = now_seconds();
        const auto reply = conn.round_trip(line);
        samples.push_back(1e6 * (now_seconds() - s));
        if (!reply || reply->rfind("ok", 0) != 0) ++my_errs;
      }
    });
  }
  for (auto& w : workers) w.join();
  const double elapsed = now_seconds() - t0;

  PathNumbers out;
  std::vector<double> all;
  for (auto& v : lat) {
    out.requests += v.size();
    all.insert(all.end(), v.begin(), v.end());
  }
  for (const std::uint64_t e : errs) out.errors += e;
  out.rps = elapsed > 0 ? static_cast<double>(out.requests) / elapsed : 0.0;
  out.p50_us = percentile(all, 50.0);
  out.p99_us = percentile(all, 99.0);
  return out;
}

/// An in-process fleet member with its accept loop running.
struct Backend {
  Backend()
      : server(std::make_unique<service::Server>(backend_options())),
        port(server->start()) {}
  /// Stop and destroy the server (the fleet member dies).
  void kill() { server.reset(); }
  std::unique_ptr<service::Server> server;
  std::uint16_t port = 0;
};

struct Scenario {
  std::string name;
  std::size_t backends = 0;  // 0: direct, no router
  PathNumbers cached;
  PathNumbers miss;
};

Scenario run_scenario(std::size_t n_backends, int client_threads,
                      double duration_s, int cached_passes,
                      const Corpus& corpus) {
  Scenario out;
  out.backends = n_backends;
  out.name = n_backends == 0 ? "direct"
                             : "router_" + std::to_string(n_backends);

  std::vector<std::unique_ptr<Backend>> fleet;
  const std::size_t fleet_size = std::max<std::size_t>(n_backends, 1);
  for (std::size_t b = 0; b < fleet_size; ++b)
    fleet.push_back(std::make_unique<Backend>());

  std::unique_ptr<cluster::Router> router;
  std::uint16_t port = fleet[0]->port;
  if (n_backends > 0) {
    cluster::RouterOptions opts;
    for (const auto& b : fleet) opts.backend_ports.push_back(b->port);
    router = std::make_unique<cluster::Router>(opts);
    port = router->start();
  }

  // Miss path first (one grid pass: the cache is always far behind the
  // working set), then warm the cached set once and time the hit loop.
  out.miss = drive(port, corpus.miss, client_threads, /*duration_s=*/0.0);
  (void)drive(port, corpus.cached, 1, /*duration_s=*/0.0);  // warm-up
  // Best of `cached_passes` intervals: the host is shared, and a noisy
  // neighbor mid-interval shows up as a 20% dip that says nothing about
  // the serving path. Peak throughput over a few intervals is the stable
  // comparison; the pass count is recorded in the JSON config.
  for (int pass = 0; pass < cached_passes; ++pass) {
    const PathNumbers p =
        drive(port, corpus.cached, client_threads, duration_s);
    if (p.rps > out.cached.rps) out.cached = p;
  }
  return out;
}

struct FailoverNumbers {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t failovers = 0;
  std::uint64_t backends_up_after = 0;
};

/// Two-backend fleet; backend 0 is killed mid-stream. Clients must see
/// zero errors: the router fails its keys (the whole in-flight pipeline
/// FIFO included) over to the survivor.
FailoverNumbers run_failover(int client_threads, double duration_s,
                             const std::vector<std::string>& cached_lines) {
  FailoverNumbers out;
  std::vector<std::unique_ptr<Backend>> fleet;
  fleet.push_back(std::make_unique<Backend>());
  fleet.push_back(std::make_unique<Backend>());
  cluster::RouterOptions opts;
  opts.backend_ports = {fleet[0]->port, fleet[1]->port};
  opts.health.interval_s = 0.05;
  cluster::Router router(opts);
  const std::uint16_t port = router.start();

  (void)drive(port, cached_lines, 1, 0.0);  // warm both shards

  std::thread killer([&fleet, duration_s] {
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::max(0.05, duration_s / 3.0)));
    fleet[0]->kill();
  });
  const PathNumbers path = drive(port, cached_lines, client_threads,
                                 duration_s);
  killer.join();
  out.requests = path.requests;
  out.errors = path.errors;
  out.failovers = router.stats().failovers;
  out.backends_up_after = router.health().up_count();
  return out;
}

struct TraceNumbers {
  std::uint64_t trace_every = 0;
  std::uint64_t requests = 0;
  std::uint64_t router_sampled = 0;  // head decisions at the router
  std::uint64_t server_adopted = 0;  // contexts the fleet adopted from it
  std::uint64_t server_sampled = 0;  // fleet head decisions (0 here: the
                                     // router owns sampling when routing)
};

/// One short routed pass with sampling on, so the JSON records how many
/// traces each tier carried. Kept separate from the measured scenarios,
/// which run tracing compiled-in-but-unsampled — that unsampled overhead
/// is what scripts/bench.sh gates against the committed numbers.
TraceNumbers run_traced(std::uint64_t trace_every,
                        const std::vector<std::string>& lines) {
  TraceNumbers out;
  out.trace_every = trace_every;
  std::vector<std::unique_ptr<Backend>> fleet;
  fleet.push_back(std::make_unique<Backend>());
  fleet.push_back(std::make_unique<Backend>());
  cluster::RouterOptions opts;
  opts.backend_ports = {fleet[0]->port, fleet[1]->port};
  opts.trace_every = trace_every;
  cluster::Router router(opts);
  const std::uint16_t port = router.start();
  const PathNumbers path = drive(port, lines, 4, /*duration_s=*/0.0);
  out.requests = path.requests;
  out.router_sampled = router.tracer().sampled_traces();
  for (const auto& b : fleet) {
    out.server_adopted += b->server->tracer().adopted_traces();
    out.server_sampled += b->server->tracer().sampled_traces();
  }
  return out;
}

/// Routed replies must be byte-for-byte what a direct server answers —
/// checked through real TCP, on drive()'s raw connection, so the data
/// plane (pipelined forwards, batched writes) is what produces them.
bool check_bit_identical(const std::vector<std::string>& lines) {
  Backend b0, b1;
  cluster::RouterOptions opts;
  opts.backend_ports = {b0.port, b1.port};
  cluster::Router router(opts);
  const std::uint16_t port = router.start();
  service::Server direct(backend_options());
  bool identical = true;
  {
    RawConn conn(port);
    for (int pass = 0; pass < 2; ++pass) {  // miss pass, then hit pass
      for (const auto& line : lines) {
        const auto routed = conn.round_trip(line);
        bool quit = false;
        const std::string local = direct.handle_line(line, &quit);
        if (!routed || *routed != local) {
          identical = false;
          std::fprintf(stderr, "bench_cluster: reply mismatch for '%s'\n",
                       line.c_str());
        }
      }
    }
  }
  return identical;
}

void write_path(std::ofstream& json, const char* name,
                const PathNumbers& p, bool last) {
  json << "    \"" << name << "\": {\"rps\": " << p.rps
       << ", \"p50_us\": " << p.p50_us << ", \"p99_us\": " << p.p99_us
       << ", \"requests\": " << p.requests << ", \"errors\": " << p.errors
       << "}" << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_cluster.json";
  double duration_s = 1.5;
  int client_threads = 16;
  int miss_requests = 1024;
  int cached_passes = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--duration-s" && i + 1 < argc) {
      duration_s = std::atof(argv[++i]);
    } else if (arg == "--client-threads" && i + 1 < argc) {
      client_threads = std::atoi(argv[++i]);
    } else if (arg == "--cached-passes" && i + 1 < argc) {
      cached_passes = std::atoi(argv[++i]);
    } else if (arg == "--miss-requests" && i + 1 < argc) {
      miss_requests = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out FILE] [--duration-s X]"
                   " [--client-threads N] [--miss-requests N]"
                   " [--cached-passes N]\n",
                   argv[0]);
      return 2;
    }
  }
  service::ignore_sigpipe();

  const Corpus corpus = make_corpus(miss_requests);

  std::fprintf(stderr, "bench_cluster: bit-identical check...\n");
  const bool identical = check_bit_identical(corpus.cached);

  // direct, then the router over 1/2/4 backends.
  std::vector<Scenario> scenarios;
  for (const std::size_t backends : {0, 1, 2, 4}) {
    scenarios.push_back(run_scenario(backends, client_threads, duration_s,
                                     cached_passes, corpus));
    std::fprintf(stderr,
                 "bench_cluster: %-16s cached %8.0f rps, miss %7.0f rps\n",
                 scenarios.back().name.c_str(), scenarios.back().cached.rps,
                 scenarios.back().miss.rps);
  }

  std::fprintf(stderr, "bench_cluster: failover...\n");
  const FailoverNumbers failover =
      run_failover(client_threads, duration_s, corpus.cached);

  std::fprintf(stderr, "bench_cluster: traced pass...\n");
  const TraceNumbers traced = run_traced(/*trace_every=*/8, corpus.miss);

  std::ofstream json(out_path);
  if (!json) {
    std::fprintf(stderr, "bench_cluster: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  json.precision(6);
  json << "{\n"
       << "  \"machine\": {\"cores\": "
       << std::thread::hardware_concurrency() << "},\n"
       << "  \"config\": {\"duration_s\": " << duration_s
       << ", \"client_threads\": " << client_threads
       << ", \"cached_passes\": " << cached_passes
       << ", \"cached_keys\": " << corpus.cached.size()
       << ", \"miss_requests\": " << corpus.miss.size()
       << ", \"miss_distinct_keys\": " << corpus.miss_distinct << "},\n"
       << "  \"bit_identical\": " << (identical ? "true" : "false") << ",\n"
       << "  \"scenarios\": {\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = scenarios[i];
    json << "  \"" << s.name << "\": {\n"
         << "    \"backends\": " << s.backends << ",\n";
    write_path(json, "cached", s.cached, false);
    write_path(json, "miss", s.miss, true);
    json << "  }" << (i + 1 < scenarios.size() ? ",\n" : "\n");
  }
  json << "  },\n"
       << "  \"failover\": {\"requests\": " << failover.requests
       << ", \"client_visible_errors\": " << failover.errors
       << ", \"router_failovers\": " << failover.failovers
       << ", \"backends_up_after\": " << failover.backends_up_after
       << "},\n"
       << "  \"tracing\": {\"trace_every\": " << traced.trace_every
       << ", \"requests\": " << traced.requests
       << ", \"traces_sampled_router\": " << traced.router_sampled
       << ", \"traces_sampled_server\": "
       << traced.server_sampled + traced.server_adopted
       << ", \"server_adopted\": " << traced.server_adopted
       << "}\n"
       << "}\n";
  json.close();
  std::fprintf(stderr, "bench_cluster: wrote %s\n", out_path.c_str());
  if (!identical || failover.errors != 0) {
    std::fprintf(stderr,
                 "bench_cluster: FAILED (identical=%d, failover errors=%llu)\n",
                 identical ? 1 : 0,
                 static_cast<unsigned long long>(failover.errors));
    return 1;
  }
  return 0;
}
