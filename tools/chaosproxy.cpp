// chaosproxy — a fault-injecting TCP proxy for one tecfand backend.
//
// Sits between a tecrouter and one backend and perturbs the wire per the
// chaos fault model (see src/testing/chaos_proxy.h and DESIGN.md, "Fault
// model"): accept-then-close, blackholes, mid-stream disconnects, short
// writes, reply-line corruption/truncation, slow-loris dribble, latency.
// All decisions are deterministic per --seed.
//
//   tecfand --port 7411 &
//   chaosproxy --target-port 7411 --listen-port 7511 --seed 42
//              --corrupt-p 0.05 --reply-delay-p 0.2 --reply-delay-us 2000
//                                         # (one command line)
//   tecrouter --port 7400 --backends 7511      # router sees the chaos
//
// Runs until SIGINT/SIGTERM; prints the bound port on startup and the
// injection counters on shutdown.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>

#include "cli_flags.h"
#include "service/framing.h"
#include "testing/chaos_proxy.h"

namespace {

using namespace tecfan;

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

void usage() {
  std::fprintf(
      stderr,
      "usage: chaosproxy --target-port N [--listen-port N] [--seed N]\n"
      "                  [--refuse-p X] [--blackhole-p X]\n"
      "                  [--short-write-cap N] [--request-delay-p X]\n"
      "                  [--request-delay-us N] [--request-disconnect-p X]\n"
      "                  [--corrupt-p X] [--truncate-p X]\n"
      "                  [--unsolicited-p X] [--slowloris-p X]\n"
      "                  [--slowloris-delay-us N] [--reply-delay-p X]\n"
      "                  [--reply-delay-us N] [--reply-disconnect-p X]\n"
      "  --target-port N   backend to front (required, 1..65535)\n"
      "  --listen-port N   proxy port (0 = ephemeral, printed on stdout)\n"
      "  --seed N          decision-stream seed (replays are exact)\n"
      "  probabilities (-p) are in [0, 1]; delays (-us) up to 10 s\n"
      "  connection faults: refuse (accept-then-close), blackhole\n"
      "  request leg:  short writes, delays, mid-stream disconnects\n"
      "  reply leg:    per-line corrupt/truncate/unsolicited garbage,\n"
      "                slow-loris dribble, delays, disconnects\n");
}

constexpr std::uint32_t kMaxDelayUs = 10'000'000;

bool parse(int argc, char** argv, testing::ChaosProxyOptions& o,
           bool& help) {
  return cli::parse_flags(argc, argv, help, [&o](auto& f) {
    if (f.is("--target-port"))
      return f.port(o.target_port, /*allow_ephemeral=*/false);
    if (f.is("--listen-port"))
      return f.port(o.listen_port, /*allow_ephemeral=*/true);
    if (f.is("--seed")) return f.number(o.seed);
    if (f.is("--refuse-p")) return f.number(o.refuse_p, 0.0, 1.0);
    if (f.is("--blackhole-p")) return f.number(o.blackhole_p, 0.0, 1.0);
    if (f.is("--short-write-cap"))
      return f.number(o.short_write_cap, 0, 1 << 20);
    if (f.is("--request-delay-p"))
      return f.number(o.request_delay_p, 0.0, 1.0);
    if (f.is("--request-delay-us"))
      return f.number(o.request_delay_us, 0, kMaxDelayUs);
    if (f.is("--request-disconnect-p"))
      return f.number(o.request_disconnect_p, 0.0, 1.0);
    if (f.is("--corrupt-p")) return f.number(o.corrupt_p, 0.0, 1.0);
    if (f.is("--truncate-p")) return f.number(o.truncate_p, 0.0, 1.0);
    if (f.is("--unsolicited-p")) return f.number(o.unsolicited_p, 0.0, 1.0);
    if (f.is("--slowloris-p")) return f.number(o.slowloris_p, 0.0, 1.0);
    if (f.is("--slowloris-delay-us"))
      return f.number(o.slowloris_delay_us, 0, kMaxDelayUs);
    if (f.is("--reply-delay-p")) return f.number(o.reply_delay_p, 0.0, 1.0);
    if (f.is("--reply-delay-us"))
      return f.number(o.reply_delay_us, 0, kMaxDelayUs);
    if (f.is("--reply-disconnect-p"))
      return f.number(o.reply_disconnect_p, 0.0, 1.0);
    return f.unknown();
  });
}

}  // namespace

int main(int argc, char** argv) {
  testing::ChaosProxyOptions options;
  bool help = false;
  if (!parse(argc, argv, options, help) || help) {
    usage();
    return help ? 0 : 2;
  }
  if (options.target_port == 0) {
    std::fprintf(stderr, "error: --target-port is required\n");
    usage();
    return 2;
  }
  service::ignore_sigpipe();
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  testing::ChaosProxy proxy(options);
  std::printf("%u\n", proxy.port());
  std::fflush(stdout);
  std::fprintf(stderr,
               "chaosproxy: 127.0.0.1:%u -> 127.0.0.1:%u (seed %llu)\n",
               proxy.port(), options.target_port,
               static_cast<unsigned long long>(options.seed));

  while (!g_stop) {
    struct timespec ts = {0, 100 * 1000 * 1000};
    ::nanosleep(&ts, nullptr);
  }
  proxy.stop();
  const auto s = proxy.stats();
  std::fprintf(stderr,
               "chaosproxy: %llu conns — refused %llu, blackholed %llu, "
               "req-disc %llu, reply-disc %llu, corrupt %llu, trunc %llu, "
               "unsolicited %llu, slowloris %llu, delays %llu, "
               "lines %llu\n",
               static_cast<unsigned long long>(s.connections),
               static_cast<unsigned long long>(s.refused),
               static_cast<unsigned long long>(s.blackholed),
               static_cast<unsigned long long>(s.request_disconnects),
               static_cast<unsigned long long>(s.reply_disconnects),
               static_cast<unsigned long long>(s.corrupted),
               static_cast<unsigned long long>(s.truncated),
               static_cast<unsigned long long>(s.unsolicited),
               static_cast<unsigned long long>(s.slowloris_lines),
               static_cast<unsigned long long>(s.delays),
               static_cast<unsigned long long>(s.lines_forwarded));
  return 0;
}
