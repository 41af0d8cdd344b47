// The deterministic request working set loadgen drives (BENCH_serving
// and BENCH_cluster both come from loadgen runs over it).
//
// Mostly equilibrium points: every (workload, threads) pair with a Table I
// (or extended) case -- cholesky, lu, fmm and volrend at 16 threads, then
// cholesky, lu, fmm and water at 4, then barnes, ocean and radix at 16 --
// at each of the 16-core chip's 8 fan levels, 6 DVFS levels and both TEC
// states (11 x 8 x 6 x 2 = 1056 distinct requests), so every line is
// servable. One key in each 16-key block is a policy `run` (4 policies x
// 4 workloads x 4 fan levels) or, in one block of four, a fan `sweep`
// (4 policies x 4 workloads), placed so that loadgen's striping gives
// every connection the same share of both; a 1024-key set (48 runs, 16
// sweeps) exercises all three compute kinds the daemon serves,
// and its 1024 lines are distinct: a cold pass over it is all misses
// whatever the cache size. Each kind advances through its own grid
// densely; small key counts (< 16) stay pure-equilibrium on the original
// benchmark x fan corner so historical BENCH_serving.json runs remain
// comparable.
#pragma once

#include <string>
#include <vector>

namespace tecfan::service {

/// Compute kinds in the working set (indexes into per-kind latency
/// buckets and loadgen's JSON kind_split).
enum class GridKind { kEquilibrium = 0, kRun = 1, kSweep = 2 };

struct GridRequest {
  std::string line;  // request wire line (no trailing '\n')
  GridKind kind = GridKind::kEquilibrium;
};

/// The first `keys` entries of the grid. Deterministic: the same `keys`
/// always yields the same lines in the same order.
std::vector<GridRequest> request_grid(int keys);

}  // namespace tecfan::service
