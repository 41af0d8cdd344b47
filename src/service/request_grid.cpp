#include "service/request_grid.h"

#include <cstddef>

namespace tecfan::service {

std::vector<GridRequest> request_grid(int keys) {
  const std::vector<std::string> workloads = {"cholesky", "lu", "fmm",
                                              "volrend"};
  // Reactive policies: cheap per-interval decisions, so run/sweep keys
  // measure the serving path rather than a model-predictive search.
  const std::vector<std::string> policies = {"fan-only", "fan+tec",
                                             "fan+dvfs", "dvfs+tec"};
  const auto wl = [&workloads](int i) {
    return workloads[static_cast<std::size_t>(i) % workloads.size()];
  };
  // Every equilibrium point, in grid order. Each group's workloads have a
  // Table I (or extended) case at the group's thread count; the chip has
  // 8 fan and 6 DVFS levels.
  struct Group {
    std::vector<std::string> workloads;
    const char* threads;
  };
  const Group groups[] = {{workloads, "16"},
                          {{"cholesky", "lu", "fmm", "water"}, "4"},
                          {{"barnes", "ocean", "radix"}, "16"}};
  std::vector<std::string> points;
  for (const Group& g : groups)
    for (const char* tec : {"", " tec=on"})
      for (int dvfs = 0; dvfs < 6; ++dvfs)
        for (int fan = 0; fan < 8; ++fan)
          for (const std::string& w : g.workloads)
            points.push_back("equilibrium workload=" + w +
                             " threads=" + g.threads +
                             " fan=" + std::to_string(fan) +
                             " dvfs=" + std::to_string(dvfs) + tec);

  std::vector<GridRequest> out;
  out.reserve(static_cast<std::size_t>(keys));
  int eq = 0, run = 0, sweep = 0;
  for (int k = 0; k < keys; ++k) {
    // One key of each 16-key block b is a run or a sweep, at offset
    // 15 - b % 16, and it is a sweep when (b / 16) % 4 == 3 - b % 4. So
    // when loadgen stripes the keys over C connections (c, c+C, ...), every
    // C in {1, 2, 4, 8, 16} gives each connection as many runs and as many
    // sweeps as the others, and no connection's serial chain of slow
    // requests sets a cold pass's wall time.
    const int b = k / 16;
    const bool slow = k % 16 == 15 - b % 16;
    if (slow && (b / 16) % 4 == 3 - b % 4) {
      const int s = sweep++;
      out.push_back({"sweep policy=" + policies[static_cast<std::size_t>(s) %
                                                policies.size()] +
                         " workload=" + wl(s / 4) + " threads=16",
                     GridKind::kSweep});
    } else if (slow) {
      const int r = run++;
      out.push_back({"run policy=" + policies[static_cast<std::size_t>(r) %
                                              policies.size()] +
                         " workload=" + wl(r / 4) +
                         " fan=" + std::to_string((r / 16) % 4) +
                         " threads=16",
                     GridKind::kRun});
    } else {
      out.push_back({points[static_cast<std::size_t>(eq++) % points.size()],
                     GridKind::kEquilibrium});
    }
  }
  return out;
}

}  // namespace tecfan::service
