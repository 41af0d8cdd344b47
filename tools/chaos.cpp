// chaos — randomized fault-injection storms against a router + fleet.
//
// Spins up an in-process ChaosFleet (router + backends, each behind a
// ChaosProxy) per fault class and drives pipelined client storms through
// it, checking the five chaos invariants after every storm (protocol
// cleanliness, reply order, counter conservation, no stuck requests +
// gauges at zero, bounded memory — see src/testing/chaos_fleet.h). The
// bench harness runs this with a time budget; every storm's seed is
// derived from --seed, and a violation prints the storm seed so the run
// can be replayed exactly:
//
//   chaos --chaos-seconds 30 --seed 7
//   chaos --chaos-seconds 5 --backends 3 --clients 8
//
// Exit status 0 = every storm passed, 1 = at least one violation.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "service/framing.h"
#include "testing/chaos_fleet.h"

namespace {

using namespace tecfan;
using Clock = std::chrono::steady_clock;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct Phase {
  const char* name;
  /// Destructive classes may exhaust the failover chain; error replies
  /// are then legitimate (but must stay protocol-clean).
  bool allow_errors;
  void (*configure)(testing::ChaosFleetOptions&);
};

const Phase kPhases[] = {
    // The router keeps ONE persistent pipe per backend, so pure
    // connection-level faults would only ever hit the first dial and the
    // health probes; a little mid-stream churn forces re-dials that the
    // refusals/blackholes can then land on.
    {"refuse", true,
     [](testing::ChaosFleetOptions& o) {
       o.proxy.refuse_p = 0.3;
       o.proxy.request_disconnect_p = 0.02;
     }},
    {"blackhole", true,
     [](testing::ChaosFleetOptions& o) {
       o.proxy.blackhole_p = 0.25;
       o.proxy.request_disconnect_p = 0.02;
     }},
    {"midline-disconnect", true,
     [](testing::ChaosFleetOptions& o) {
       o.proxy.request_disconnect_p = 0.03;
       o.proxy.reply_disconnect_p = 0.03;
     }},
    {"short-write", false,
     [](testing::ChaosFleetOptions& o) { o.proxy.short_write_cap = 3; }},
    {"slowloris", false,
     [](testing::ChaosFleetOptions& o) {
       o.proxy.slowloris_p = 0.2;
       o.proxy.slowloris_delay_us = 50;
     }},
    {"corrupt", true,
     [](testing::ChaosFleetOptions& o) { o.proxy.corrupt_p = 0.05; }},
    {"truncate", true,
     [](testing::ChaosFleetOptions& o) { o.proxy.truncate_p = 0.03; }},
    {"unsolicited", true,
     [](testing::ChaosFleetOptions& o) { o.proxy.unsolicited_p = 0.05; }},
    {"latency-hedge", false,
     [](testing::ChaosFleetOptions& o) {
       o.proxy.reply_delay_p = 0.3;
       o.proxy.reply_delay_us = 5000;
       o.router.hedge_ms = 2.0;
     }},
    {"mixed", true,
     [](testing::ChaosFleetOptions& o) {
       o.proxy.refuse_p = 0.05;
       o.proxy.blackhole_p = 0.05;
       o.proxy.request_disconnect_p = 0.01;
       o.proxy.reply_disconnect_p = 0.01;
       o.proxy.short_write_cap = 7;
       o.proxy.corrupt_p = 0.02;
       o.proxy.truncate_p = 0.01;
       o.proxy.unsolicited_p = 0.02;
       o.proxy.reply_delay_p = 0.1;
       o.proxy.reply_delay_us = 1000;
       o.router.hedge_ms = 5.0;
     }},
};

struct Args {
  double chaos_seconds = 20.0;
  std::string phase;  // empty = all phases
  std::uint64_t seed = 1;
  std::size_t backends = 2;
  std::size_t clients = 4;
  std::size_t requests_per_client = 40;
  bool help = false;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: chaos [--chaos-seconds X] [--seed N] [--backends N]\n"
      "             [--clients N] [--requests N]\n"
      "  --chaos-seconds X  total wall-clock budget, split across the %zu\n"
      "                     fault-class phases (default 20)\n"
      "  --seed N           base seed; every storm seed derives from it\n"
      "  --backends N       fleet size (default 2)\n"
      "  --clients N        concurrent pipelined clients per storm (4)\n"
      "  --requests N       requests per client per storm (40)\n"
      "  --phase NAME       run only this fault-class phase\n",
      sizeof(kPhases) / sizeof(kPhases[0]));
}

bool parse(int argc, char** argv, Args& out) {
  return cli::parse_flags(argc, argv, out.help, [&out](auto& f) {
    if (f.is("--chaos-seconds")) return f.number(out.chaos_seconds, 0.0, 1e6);
    if (f.is("--seed")) return f.number(out.seed);
    if (f.is("--backends")) return f.number(out.backends, 1, 64);
    if (f.is("--clients")) return f.number(out.clients, 1, 1024);
    if (f.is("--requests"))
      return f.number(out.requests_per_client, 1, 1 << 20);
    if (f.is("--phase")) return f.text(out.phase);
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
  service::ignore_sigpipe();

  constexpr std::size_t kPhaseCount = sizeof(kPhases) / sizeof(kPhases[0]);
  const double slice_s = args.chaos_seconds / static_cast<double>(kPhaseCount);
  std::size_t storms = 0, failures = 0;
  const auto t0 = Clock::now();

  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const Phase& phase = kPhases[p];
    if (!args.phase.empty() && args.phase != phase.name) continue;
    testing::ChaosFleetOptions fo;
    fo.backends = args.backends;
    fo.with_proxies = true;
    fo.proxy.seed = splitmix64(args.seed ^ (p + 1));
    phase.configure(fo);
    testing::ChaosFleet fleet(fo);

    const auto slice_end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(slice_s));
    std::size_t phase_storms = 0, phase_failures = 0;
    std::size_t phase_requests = 0, phase_errors = 0;
    do {  // at least one storm per phase, whatever the budget
      testing::StormOptions so;
      so.seed = splitmix64(args.seed ^ ((p + 1) * 1000 + phase_storms));
      so.clients = args.clients;
      so.requests_per_client = args.requests_per_client;
      so.allow_errors = phase.allow_errors;
      const auto report = testing::run_storm(fleet, so);
      ++storms;
      ++phase_storms;
      phase_requests += report.requests;
      phase_errors += report.errors;
      if (!report.passed()) {
        ++failures;
        ++phase_failures;
        std::fprintf(stderr, "[%s] %s\n", phase.name,
                     report.describe().c_str());
      }
    } while (Clock::now() < slice_end);
    const auto rs = fleet.router().stats();
    std::fprintf(stderr,
                 "[%s] %zu storms, %zu requests (%zu errors), "
                 "failovers=%llu hedges=%llu pipe_stalls=%llu — %s\n",
                 phase.name, phase_storms, phase_requests, phase_errors,
                 static_cast<unsigned long long>(rs.failovers),
                 static_cast<unsigned long long>(rs.hedges),
                 static_cast<unsigned long long>(rs.pipe_stalls),
                 phase_failures == 0 ? "PASS" : "FAIL");
  }

  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();
  std::fprintf(stderr,
               "chaos: %zu storms over %zu phases in %.1fs, %zu failed "
               "(seed %llu)\n",
               storms, kPhaseCount, elapsed, failures,
               static_cast<unsigned long long>(args.seed));
  return failures == 0 ? 0 : 1;
}
