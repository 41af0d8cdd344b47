// tecfand front-end over one shared chip engine.
//
// The Server owns the expensive state once — a single const sim::ChipEngine
// (models, base factorizations, calibrated workloads) shared by every
// worker — plus the base-scenario threshold cache, the result cache, and
// the worker pool. Each compute constructs a throwaway per-thread
// ChipSimulator workspace over the engine (microseconds, no
// refactorization), so worker count scales without duplicating the
// ~600x600 factored systems and nothing stateful is ever shared between
// threads.
//
//   * handle_line() answers one request line: local verbs through the
//     daemon shell (service/daemon.h), compute kinds through the result
//     cache and then the bounded worker pool, so a saturated daemon
//     answers `busy` instead of queueing unboundedly;
//   * serve_pipe() is the stdin/stdout daemon mode: one request line in,
//     one response line out, until `quit` or EOF;
//   * the shell's bind_listen()/serve()/start()/stop() is the local TCP
//     mode: one thread per accepted connection, each running the same
//     line protocol, joined by the accept loop once its connection
//     closes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/daemon.h"
#include "service/request.h"
#include "service/result_cache.h"
#include "service/worker_pool.h"
#include "sim/chip_engine.h"
#include "sim/chip_simulator.h"
#include "util/metrics.h"

namespace tecfan::service {

/// Worker-pool size matched to the machine: hardware_concurrency clamped to
/// [2, 16] (0 — unknown — falls back to 2).
std::size_t default_worker_count();

struct ServerOptions {
  std::size_t workers = default_worker_count();
  std::size_t queue_capacity = 64;
  std::size_t cache_capacity = 4096;
  /// Tile grid of the served scenario (tests use small grids; the default
  /// is the calibrated 4x4 SCC chip).
  int tiles_x = 4;
  int tiles_y = 4;
  /// Simulated-time safety cap passed to runs and sweeps.
  double max_sim_time_s = 2.0;
  /// Deadline applied to requests that do not carry their own
  /// deadline_ms; 0 = none.
  double default_deadline_ms = 0.0;
  /// Operator-visible replica name reported by the `stats` verb (tecfand
  /// --name); empty = unnamed. The cluster health monitor and operators
  /// use it to tell fleet members apart.
  std::string instance_name;
  /// Head-of-trace sampling when this daemon is hit directly: 0 disables
  /// tracing, N >= 1 samples every Nth request line. Requests arriving
  /// with a `trace=` field (from the router) are always adopted, so a
  /// backend behind a sampling router needs no flag of its own.
  std::uint64_t trace_every = 0;
};

class Server : public Daemon {
 public:
  explicit Server(ServerOptions options = {});
  ~Server() override;

  /// Execute one parsed compute request exactly as a served line does:
  /// the result cache first, then the worker pool (busy / deadline
  /// answered without computing). Local verbs go through handle_line().
  Response handle(const Request& request);

  /// Parse and execute one request line; returns the response line.
  /// Sets *quit when the line was a `quit` request.
  std::string handle_line(const std::string& line, bool* quit = nullptr);

  /// Pipe mode: serve request lines from `in`, one response line per
  /// request on `out`, until EOF or `quit`. Compute requests run on the
  /// worker pool (so deadlines and backpressure behave as in TCP mode).
  void serve_pipe(std::istream& in, std::ostream& out);

  struct Stats {
    std::uint64_t requests = 0;   // request lines accepted (any kind)
    std::uint64_t computes = 0;   // cache misses actually simulated
    std::uint64_t errors = 0;     // error responses produced (incl. failed
                                  // computes and expired deadlines)
    ResultCache::Stats cache;
    WorkerPool::Stats pool;
    /// Shared factored state (one copy regardless of worker count).
    std::size_t engine_bytes = 0;
    /// Largest per-compute workspace observed so far (per worker, not
    /// shared).
    std::size_t workspace_bytes = 0;
  };
  Stats stats() const;

  const ServerOptions& options() const { return options_; }
  const sim::ChipEngine& engine() const { return *engine_; }

 private:
  /// Dispatch a parsed compute request through the worker pool and wait
  /// for its response (busy / deadline answered without computing).
  Response dispatch(const Request& request);

  Response execute(const Request& request);  // cache-filling slow path
  Response do_equilibrium(sim::ChipSimulator& simulator,
                          const Request& request);
  Response do_run(sim::ChipSimulator& simulator, const Request& request);
  Response do_sweep(sim::ChipSimulator& simulator, const Request& request);
  Response do_table1(sim::ChipSimulator& simulator, const Request& request);

  void serve_loop(int listen_fd) override;
  void stop_sessions() override;
  void refresh_gauges() const override;
  void add_stats(Response& r) const override;

  /// Base-scenario anchor (Table I protocol) for a workload, memoized:
  /// peak temperature defines the run/sweep threshold.
  sim::RunResult base_scenario(sim::ChipSimulator& simulator,
                               const perf::Workload& wl);

  ServerOptions options_;
  sim::ChipEnginePtr engine_;
  ResultCache cache_;
  // Per-stage serving-path telemetry in the shell's registry (all in
  // microseconds):
  //   parse       — request line to parsed request (handle_line)
  //   cache_probe — canonical key build + result-cache lookup
  //   queue_wait  — worker-pool submit to dequeue (recorded by the pool;
  //                 the registry outlives it)
  //   compute     — workspace construction + simulation + response build
  //   serialize   — compute response struct to wire line
  //   e2e_hit     — whole handle_line span of ok cached compute requests
  //   e2e_miss    — whole handle_line span of ok computed requests
  LatencyHistogram* hist_parse_;
  LatencyHistogram* hist_cache_probe_;
  LatencyHistogram* hist_queue_wait_;
  LatencyHistogram* hist_compute_;
  LatencyHistogram* hist_serialize_;
  LatencyHistogram* hist_e2e_hit_;
  LatencyHistogram* hist_e2e_miss_;
  // Request/compute/error totals live in the registry so the `metrics`
  // verb and the Prometheus exposition see them; Counter::inc is the same
  // relaxed fetch_add the old bare atomics paid.
  Counter* counter_requests_;
  Counter* counter_computes_;
  Counter* counter_errors_;
  // Runtime health gauges, set at dump time from live stats (Gauge::set
  // through a stored pointer is const-safe, so const dump paths refresh
  // them).
  Gauge* gauge_pool_queue_depth_;
  std::vector<Gauge*> gauge_cache_shards_;
  WorkerPool pool_;

  std::mutex base_mu_;
  std::map<std::string, sim::RunResult> base_results_;

  std::atomic<std::size_t> workspace_bytes_{0};  // max observed

  /// One accepted connection and the thread serving it. `fd` is guarded
  /// by conns_mu_; the thread sets it to -1 just before it closes the
  /// socket and exits, which marks the session ready to join.
  struct Session {
    int fd = -1;
    std::thread thread;
  };
  /// Join every session whose thread has finished (accept loop only).
  void reap_finished_sessions();

  std::mutex conns_mu_;
  std::list<Session> sessions_;  // list: session threads hold references
};

}  // namespace tecfan::service
