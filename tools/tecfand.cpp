// tecfand — the thermal-planning daemon.
//
// Serves the line protocol of service/request.h over stdin/stdout (pipe
// mode, the default when stdin is not a TTY or --pipe is given) or a local
// TCP socket (--port N; N=0 picks an ephemeral port, printed on startup).
//
//   tecfand --pipe                      # stdin/stdout session
//   tecfand --port 7411                 # loopback TCP daemon
//   tecfand --port 0 --workers 4        # ephemeral port, bigger pool
//
// Example session:
//
//   $ ./build/tools/tecfand --pipe
//   equilibrium workload=cholesky threads=16 fan=2
//   ok peak_t_k=... peak_t_c=... fan_w=...
//   stats
//   ok uptime_s=... cache_hits=... ...
//   quit
//   ok bye=1
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "cli_flags.h"
#include "service/framing.h"
#include "service/server.h"
#include "util/metrics.h"

namespace {

struct Args {
  bool pipe = false;
  std::optional<std::uint16_t> port;
  std::size_t workers = tecfan::service::default_worker_count();
  std::size_t queue = 64;
  std::size_t cache = 4096;
  double deadline_ms = 0.0;
  double metrics_interval_s = 0.0;  // 0 = no periodic logging
  std::uint64_t trace_every = 0;    // 0 = tracing off
  std::string name;  // replica name reported by `stats`
  bool help = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: tecfand [--pipe | --port N] [--workers N] [--queue N]\n"
               "               [--cache N] [--deadline-ms X] [--name S]\n"
               "               [--metrics-interval S] [--trace-every N]\n"
               "  --pipe          serve stdin/stdout (default)\n"
               "  --port N        serve loopback TCP on port N (0 = ephemeral)\n"
               "  --workers N     worker pool size (default: hardware threads,\n"
               "                  clamped to [2,16])\n"
               "  --queue N       pending-request bound before `busy` (64)\n"
               "  --cache N       result cache capacity in entries (4096)\n"
               "  --deadline-ms X default per-request deadline (0 = none)\n"
               "  --name S        replica name reported by the stats verb\n"
               "                  (fleet members behind tecrouter)\n"
               "  --metrics-interval S\n"
               "                  log per-stage latency percentiles to stderr\n"
               "                  every S seconds (0 = off)\n"
               "  --trace-every N sample every Nth compute request for\n"
               "                  cross-tier tracing (0 = off); dump with\n"
               "                  the `trace` protocol verb\n");
}

/// One stderr line summarizing every non-empty stage histogram. Rendered
/// from a single registry snapshot so the counters within one dump are
/// mutually consistent (same guarantee the `metrics` verb gives).
void log_metrics(const tecfan::service::Server& server) {
  const auto snapshot = server.metrics_snapshot();
  std::string line = "tecfand metrics:";
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
  if (!any) line += " (no samples yet)";
  std::fprintf(stderr, "%s\n", line.c_str());
  std::fflush(stderr);
}

bool parse(int argc, char** argv, Args& out) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--pipe") {
      out.pipe = true;
      continue;
    }
    if (a == "--help" || a == "-h") {
      out.help = true;
      continue;
    }
    // Every other flag takes a value; a missing one parses as "".
    const bool has_value = i + 1 < argc;
    const std::string_view v = has_value ? argv[++i] : "";
    std::uint16_t port = 0;
    bool ok;
    if (a == "--port") {
      ok = tecfan::cli::parse_port(v, port, /*allow_ephemeral=*/true);
      if (ok) out.port = port;
    } else if (a == "--workers") {
      ok = tecfan::cli::parse_number(v, out.workers, 1, 1024);
    } else if (a == "--queue") {
      ok = tecfan::cli::parse_number(v, out.queue, 1, 1 << 20);
    } else if (a == "--cache") {
      ok = tecfan::cli::parse_number(v, out.cache, 1, 1 << 24);
    } else if (a == "--deadline-ms") {
      ok = tecfan::cli::parse_number(v, out.deadline_ms, 0.0, 1e9);
    } else if (a == "--metrics-interval") {
      ok = tecfan::cli::parse_number(v, out.metrics_interval_s, 0.0, 1e6);
    } else if (a == "--trace-every") {
      ok = tecfan::cli::parse_number(
          v, out.trace_every, 0, std::numeric_limits<std::uint64_t>::max());
    } else if (a == "--name") {
      ok = has_value;
      out.name = v;
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
  if (args.pipe && args.port) {
    std::fprintf(stderr, "error: --pipe and --port are exclusive\n");
    return 2;
  }

  // A client that disconnects mid-response must cost one session, not the
  // daemon: library sends use MSG_NOSIGNAL, and this covers stray paths.
  tecfan::service::ignore_sigpipe();

  tecfan::service::ServerOptions options;
  options.workers = args.workers;
  options.queue_capacity = args.queue;
  options.cache_capacity = args.cache;
  options.default_deadline_ms = args.deadline_ms;
  options.instance_name = args.name;
  options.trace_every = args.trace_every;
  tecfan::service::Server server(options);

  // Periodic telemetry: a sampling thread that logs per-stage percentiles
  // to stderr, independent of (and in the same format as) the `metrics`
  // protocol verb.
  std::atomic<bool> stop_metrics{false};
  std::thread metrics_logger;
  if (args.metrics_interval_s > 0) {
    metrics_logger = std::thread([&server, &stop_metrics,
                                  interval = args.metrics_interval_s] {
      const auto step = std::chrono::duration<double>(interval);
      auto next = std::chrono::steady_clock::now() + step;
      while (!stop_metrics.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        if (std::chrono::steady_clock::now() < next) continue;
        next += std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(step);
        log_metrics(server);
      }
    });
  }
  const auto stop_logger = [&stop_metrics, &metrics_logger] {
    stop_metrics.store(true);
    if (metrics_logger.joinable()) metrics_logger.join();
  };

  if (args.port) {
    const std::uint16_t port = server.bind_listen(*args.port);
    std::fprintf(stderr, "tecfand: listening on 127.0.0.1:%u (%zu workers)\n",
                 port, args.workers);
    std::fflush(stderr);
    server.serve();
    stop_logger();
    return 0;
  }

  server.serve_pipe(std::cin, std::cout);
  stop_logger();
  return 0;
}
