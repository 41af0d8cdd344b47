// tracecat — dump sampled traces from a running tecfand or tecrouter.
//
// Connects to the daemon's loopback port, issues the `trace` protocol
// verb, and prints each completed trace as one JSON object per line
// (JSONL), ready for jq or a file. Pointed at a tecrouter, the objects
// are the reassembled cross-tier trees: the router's route/backend_wait
// spans plus the winning backend's queue_wait/compute/serialize spans,
// all under one trace id.
//
//   tecrouter --port 7400 --backends 7411,7412 --trace-every 100 &
//   tools/tracecat --port 7400 | jq .
//   tools/tracecat --port 7400 --limit 4 --follow 2   # poll every 2 s
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>

#include <unistd.h>

#include "cli_flags.h"
#include "service/framing.h"
#include "service/request.h"

namespace {

using namespace tecfan;

struct Args {
  std::optional<std::uint16_t> port;
  int limit = 16;
  double follow_s = 0.0;  // 0: one shot
  bool help = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: tracecat --port N [--limit N] [--follow S]\n"
               "  --port N    tecfand or tecrouter loopback port\n"
               "  --limit N   max traces per dump (16)\n"
               "  --follow S  keep polling every S seconds (0 = one shot);\n"
               "              repeated dumps may repeat traces still in the\n"
               "              ring — dedup on trace_id downstream\n");
}

bool parse(int argc, char** argv, Args& out) {
  return cli::parse_flags(argc, argv, out.help, [&out](auto& f) {
    if (f.is("--port")) return f.port(out.port, /*allow_ephemeral=*/false);
    if (f.is("--limit")) return f.number(out.limit, 1, 1 << 16);
    if (f.is("--follow")) return f.number(out.follow_s, 0.0, 1e6);
    return f.unknown();
  }) && (out.port || out.help);
}

/// One `trace` round trip; prints each returned trace as a JSON line.
/// Returns the number of traces printed, or -1 on a protocol error.
int dump_once(int fd, service::LineReader& reader, int limit) {
  const std::string verb = "trace limit=" + std::to_string(limit) + "\n";
  if (!service::send_all(fd, verb)) return -1;
  const auto line = reader.read_line();
  if (!line) return -1;
  const service::Response r = service::parse_response(*line);
  if (r.status != service::Response::Status::kOk) {
    std::fprintf(stderr, "tracecat: %s\n", line->c_str());
    return -1;
  }
  int count = 0;
  if (auto n = r.field("traces")) cli::parse_number(*n, count, 0, limit);
  for (int i = 0; i < count; ++i) {
    const auto t = r.field("t" + std::to_string(i));
    if (!t) break;
    std::printf("%s\n", t->c_str());
  }
  std::fflush(stdout);
  return count;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args) || args.help) {
    usage();
    return args.help ? 0 : 2;
  }
  service::ignore_sigpipe();

  const int fd = service::connect_loopback(*args.port);
  if (fd < 0) {
    std::fprintf(stderr, "tracecat: cannot connect to 127.0.0.1:%u\n",
                 *args.port);
    return 1;
  }
  service::LineReader reader(fd);

  int rc = 0;
  for (;;) {
    const int n = dump_once(fd, reader, args.limit);
    if (n < 0) {
      rc = 1;
      break;
    }
    if (args.follow_s <= 0) break;
    std::this_thread::sleep_for(std::chrono::duration<double>(args.follow_s));
  }
  ::close(fd);
  return rc;
}
