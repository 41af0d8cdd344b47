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
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "cluster/router.h"
#include "metrics_logger.h"
#include "service/framing.h"

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

bool parse(int argc, char** argv, Args& out) {
  return cli::parse_flags(argc, argv, out.help, [&out](auto& f) {
    if (f.is("--port")) return f.port(out.port, /*allow_ephemeral=*/true);
    if (f.is("--backends")) return f.ports(out.backends);
    if (f.is("--vnodes")) return f.number(out.vnodes, 1, 1 << 16);
    if (f.is("--deadline-ms")) return f.number(out.deadline_ms, 0.0, 1e9);
    if (f.is("--hedge-ms")) return f.number(out.hedge_ms, -1.0, 1e9);
    if (f.is("--health-interval"))
      return f.number(out.health_interval_s, 1e-6, 1e6);
    if (f.is("--metrics-interval"))
      return f.number(out.metrics_interval_s, 0.0, 1e6);
    if (f.is("--trace-every")) return f.number(out.trace_every);
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

  const cli::MetricsLogger logger(router, "tecrouter",
                                 args.metrics_interval_s);

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
  return 0;
}
