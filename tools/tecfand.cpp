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
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>

#include "cli_flags.h"
#include "metrics_logger.h"
#include "service/framing.h"
#include "service/server.h"

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
               "                  log a metrics summary (counters, per-stage\n"
               "                  percentiles, runtime gauges) to stderr\n"
               "                  every S seconds (0 = off)\n"
               "  --trace-every N sample every Nth compute request for\n"
               "                  cross-tier tracing (0 = off); dump with\n"
               "                  the `trace` protocol verb\n");
}

bool parse(int argc, char** argv, Args& out) {
  return tecfan::cli::parse_flags(argc, argv, out.help, [&out](auto& f) {
    if (f.is("--pipe")) return f.set(out.pipe);
    if (f.is("--port")) return f.port(out.port, /*allow_ephemeral=*/true);
    if (f.is("--workers")) return f.number(out.workers, 1, 1024);
    if (f.is("--queue")) return f.number(out.queue, 1, 1 << 20);
    if (f.is("--cache")) return f.number(out.cache, 1, 1 << 24);
    if (f.is("--deadline-ms")) return f.number(out.deadline_ms, 0.0, 1e9);
    if (f.is("--metrics-interval"))
      return f.number(out.metrics_interval_s, 0.0, 1e6);
    if (f.is("--trace-every")) return f.number(out.trace_every);
    if (f.is("--name")) return f.text(out.name);
    return f.unknown();
  });
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

  const tecfan::cli::MetricsLogger logger(server, "tecfand",
                                         args.metrics_interval_s);

  if (args.port) {
    const std::uint16_t port = server.bind_listen(*args.port);
    std::fprintf(stderr, "tecfand: listening on 127.0.0.1:%u (%zu workers)\n",
                 port, args.workers);
    std::fflush(stderr);
    server.serve();
    return 0;
  }

  server.serve_pipe(std::cin, std::cout);
  return 0;
}
