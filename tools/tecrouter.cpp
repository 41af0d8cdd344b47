// tecrouter — sharding + replication front-end over a tecfand fleet.
//
// Speaks the tecfand line protocol to clients on a loopback TCP port and
// fans compute requests out to N backends by consistent-hashed canonical
// key (see src/cluster/). Start the fleet first, then the router:
//
//   tecfand --port 7411 &  tecfand --port 7412 &
//   tecrouter --port 7400 --backends 7411,7412
//   loadgen --port 7400            # clients can't tell it's a fleet
//
//   tecrouter --port 0 --backends 7411,7412 --hedge-ms 0
//                                  # ephemeral port, auto p99 hedging
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cli_flags.h"
#include "cluster/router.h"
#include "service/framing.h"
#include "util/metrics.h"

namespace {

using namespace tecfan;

struct Args {
  std::optional<std::uint16_t> port;
  std::vector<std::uint16_t> backends;
  std::size_t vnodes = cluster::ShardMap::kDefaultVirtualNodes;
  double deadline_ms = 0.0;
  double hedge_ms = -1.0;
  double health_interval_s = 0.1;
  double metrics_interval_s = 0.0;  // 0 = no periodic logging
  std::uint64_t trace_every = 0;    // 0 = tracing off
  bool help = false;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: tecrouter --port N --backends P1,P2,... [--vnodes N]\n"
      "                 [--deadline-ms X] [--hedge-ms X]\n"
      "                 [--health-interval S] [--metrics-interval S]\n"
      "                 [--trace-every N]\n"
      "  --port N           client-facing loopback port (0 = ephemeral)\n"
      "  --backends P1,P2   comma-separated tecfand ports (the fleet)\n"
      "  --vnodes N         virtual nodes per backend on the hash ring (64)\n"
      "  --deadline-ms X    per-forward deadline when the client sends none\n"
      "                     (0 = none; timeouts fail over to the replica)\n"
      "  --hedge-ms X       hedged retry delay: -1 off (default), 0 = derive\n"
      "                     from observed e2e p99, >0 fixed delay in ms\n"
      "  --health-interval S  backend ping period in seconds (0.1)\n"
      "  --metrics-interval S  log a metrics summary (counters, per-stage\n"
      "                     percentiles, runtime gauges) to stderr every\n"
      "                     S seconds (0 = off)\n"
      "  --trace-every N    sample every Nth compute request for cross-tier\n"
      "                     tracing (0 = off); dump reassembled traces with\n"
      "                     the `trace` protocol verb or tools/tracecat\n");
}

/// One stderr line per dump, rendered from a single registry snapshot so
/// every number in it describes the same instant (counters never run
/// ahead of the histograms they explain). Counters and runtime gauges
/// first, then every non-empty stage histogram.
void log_metrics(const cluster::Router& router) {
  const auto snapshot = router.metrics_snapshot();
  std::string line = "tecrouter metrics:";
  for (const auto& [name, value] : snapshot.counters) {
    if (value == 0) continue;
    line += ' ' + name + '=' + std::to_string(value);
  }
  for (const auto& [name, value] : snapshot.gauges) {
    if (value == 0.0) continue;
    char buf[96];
    std::snprintf(buf, sizeof(buf), " %s=%.0f", name.c_str(), value);
    line += buf;
  }
  bool any = false;
  for (const auto& [name, snap] : snapshot.histograms) {
    if (snap.count == 0) continue;
    any = true;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  " %s(n=%llu p50=%.1fus p99=%.1fus max=%.1fus)", name.c_str(),
                  static_cast<unsigned long long>(snap.count),
                  snap.percentile(50.0), snap.percentile(99.0), snap.max_us);
    line += buf;
  }
  if (!any && snapshot.counters.empty()) line += " (no samples yet)";
  std::fprintf(stderr, "%s\n", line.c_str());
  std::fflush(stderr);
}

bool parse(int argc, char** argv, Args& out) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      out.help = true;
      continue;
    }
    // Every other flag takes a value; a missing one parses as "".
    const std::string_view v = i + 1 < argc ? argv[++i] : "";
    std::uint16_t port = 0;
    bool ok;
    if (a == "--port") {
      ok = cli::parse_port(v, port, /*allow_ephemeral=*/true);
      if (ok) out.port = port;
    } else if (a == "--backends") {
      ok = cli::parse_ports(v, out.backends);
    } else if (a == "--vnodes") {
      ok = cli::parse_number(v, out.vnodes, 1, 1 << 16);
    } else if (a == "--deadline-ms") {
      ok = cli::parse_number(v, out.deadline_ms, 0.0, 1e9);
    } else if (a == "--hedge-ms") {
      ok = cli::parse_number(v, out.hedge_ms, -1.0, 1e9);
    } else if (a == "--health-interval") {
      ok = cli::parse_number(v, out.health_interval_s, 1e-6, 1e6);
    } else if (a == "--metrics-interval") {
      ok = cli::parse_number(v, out.metrics_interval_s, 0.0, 1e6);
    } else if (a == "--trace-every") {
      ok = cli::parse_number(v, out.trace_every, 0,
                             std::numeric_limits<std::uint64_t>::max());
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "invalid value for %s: '%.*s'\n", a.c_str(),
                   static_cast<int>(v.size()), v.data());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args) || args.help) {
    usage();
    return args.help ? 0 : 2;
  }
  if (!args.port || args.backends.empty()) {
    std::fprintf(stderr, "error: --port and --backends are required\n");
    usage();
    return 2;
  }

  // A backend vanishing mid-response must surface as an error return on
  // that one forward, never as a router-killing SIGPIPE.
  tecfan::service::ignore_sigpipe();

  cluster::RouterOptions options;
  options.backend_ports = args.backends;
  options.virtual_nodes = args.vnodes;
  options.backend_deadline_ms = args.deadline_ms;
  options.hedge_ms = args.hedge_ms;
  options.health.interval_s = args.health_interval_s;
  options.trace_every = args.trace_every;
  cluster::Router router(options);

  // Periodic telemetry to stderr, same sampling-thread shape as tecfand's
  // --metrics-interval: a 50ms poll so shutdown never waits a full period.
  std::atomic<bool> stop_metrics{false};
  std::thread metrics_logger;
  if (args.metrics_interval_s > 0) {
    metrics_logger = std::thread([&router, &stop_metrics,
                                  interval = args.metrics_interval_s] {
      const auto step = std::chrono::duration<double>(interval);
      auto next = std::chrono::steady_clock::now() + step;
      while (!stop_metrics.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        if (std::chrono::steady_clock::now() < next) continue;
        next += std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(step);
        log_metrics(router);
      }
    });
  }

  const std::uint16_t port = router.bind_listen(*args.port);
  std::string fleet;
  for (const std::uint16_t p : args.backends) {
    if (!fleet.empty()) fleet += ',';
    fleet += std::to_string(p);
  }
  std::fprintf(stderr,
               "tecrouter: listening on 127.0.0.1:%u, fleet [%s] "
               "(%zu vnodes/backend, hedge %s)\n",
               port, fleet.c_str(), args.vnodes,
               args.hedge_ms < 0    ? "off"
               : args.hedge_ms == 0 ? "auto-p99"
                                    : "fixed");
  std::fflush(stderr);
  router.serve();
  stop_metrics.store(true);
  if (metrics_logger.joinable()) metrics_logger.join();
  return 0;
}
