// tecrouter — sharding + replication front-end over a tecfand fleet.
//
// Clients speak the service/request.h line protocol to the router exactly
// as they would to a single tecfand; the router speaks the same protocol
// to its backends. Per request line:
//
//   * local verbs (ping/stats/metrics/trace/quit) are answered by the
//     router itself — `stats` reports fleet topology and health, `metrics`
//     dumps the router's own per-stage histograms (route / backend_wait /
//     e2e) in the same wire format as a backend;
//   * compute verbs (equilibrium/run/sweep/table1) are routed by the
//     canonical cache key through the ShardMap ring, so each backend's
//     ResultCache sees a disjoint, stable slice of the key space and
//     fleet-wide effective cache capacity scales linearly;
//   * a down backend (HealthMonitor markdown, or a forward failure
//     observed on the traffic path) is skipped: the request fails over to
//     the next distinct backend along the ring, and the keys come back to
//     the owner automatically once it is marked up again;
//   * optionally, a request whose reply has not arrived after a
//     p99-derived delay is hedged: the same canonical line is sent to the
//     ring replica and the first answer wins. Cache hits return in
//     microseconds and never reach the hedge timer — hedging is
//     effectively a miss-path tail cutter.
//
// Responses are forwarded verbatim (bit-identical to direct serving);
// only router-generated errors (`no backend available`, parse errors) are
// produced locally. The listener lifecycle and the local verbs come from
// the daemon shell tecfand shares (service/daemon.h); the shell's serve()
// runs the one data plane, EpollPlane (see epoll_plane.h): a single
// event-loop thread with nonblocking client sessions and one pipelined
// connection per backend. The Router owns the state that outlives a
// serve() call — ring, health monitor, counters, histograms — and the
// plane reads it as a friend.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/health_monitor.h"
#include "cluster/shard_map.h"
#include "service/daemon.h"
#include "service/request.h"
#include "util/metrics.h"

namespace tecfan::cluster {

class EpollPlane;

struct RouterOptions {
  /// Loopback TCP ports of the tecfand backends (one fleet member each).
  std::vector<std::uint16_t> backend_ports;
  /// Virtual nodes per backend on the consistent-hash ring.
  std::size_t virtual_nodes = ShardMap::kDefaultVirtualNodes;
  /// Per-forward deadline when the client request carries none; 0 = none.
  /// (A forward that times out counts as a backend failure and fails
  /// over.)
  double backend_deadline_ms = 0.0;
  /// Hedged retry: <0 disables; 0 derives the delay from the router's
  /// observed e2e p99 (clamped to [Router::kHedgeFloorMs,
  /// Router::kHedgeCeilMs]); >0 is a fixed delay in ms.
  double hedge_ms = -1.0;
  /// Bound on every backend pipe dial: a nonblocking connect() with this
  /// deadline, so a SYN-blackholed backend costs milliseconds, not the
  /// kernel's SYN-retry default. (Health probes are bounded by
  /// health.ping_timeout_ms instead.)
  double dial_timeout_ms = 250.0;
  /// How long a deadline-less forward may sit at the head of a backend
  /// pipe's FIFO before the pipe is declared stalled
  /// (accept-then-blackhole), reported to health, torn down, and its
  /// whole FIFO failed over. Forwards that carry a deadline use it (plus
  /// stall_grace_ms) instead, so legitimately long computes are never cut
  /// short. 0 disables the watchdog.
  double pipe_stall_ms = 30000.0;
  /// Grace added to a request's own deadline before its pipe is declared
  /// stalled (the deadline timer answers the client; the watchdog only
  /// reclaims the FIFO and the connection).
  double stall_grace_ms = 250.0;
  /// Head-of-trace sampling for routed requests: 0 disables tracing,
  /// N >= 1 samples every Nth compute line. Sampled forwards carry a
  /// `trace=` field to the backend; the backend's reply spans are folded
  /// into the router's rings, so the `trace` verb on the router returns
  /// the full cross-tier tree. Requests that already arrive with a
  /// `trace=` field are always adopted.
  std::uint64_t trace_every = 0;
  HealthMonitor::Options health;
};

class Router : public service::Daemon {
 public:
  /// Bounds on the auto-mode (hedge_ms == 0) hedge delay, in ms.
  static constexpr double kHedgeFloorMs = 1.0;
  static constexpr double kHedgeCeilMs = 200.0;

  explicit Router(RouterOptions options);
  ~Router() override;

  const ShardMap& shards() const { return shards_; }
  HealthMonitor& health() { return *health_; }
  const HealthMonitor& health() const { return *health_; }

  struct Stats {
    std::uint64_t requests = 0;    // request lines accepted (any kind)
    std::uint64_t routed = 0;      // compute forwards attempted
    std::uint64_t local = 0;       // local verbs answered here
    std::uint64_t failovers = 0;   // forwards retried on another backend
    std::uint64_t hedges = 0;      // hedge requests actually sent
    std::uint64_t hedge_wins = 0;  // hedges whose reply arrived first
    std::uint64_t errors = 0;      // router-generated error responses
    std::uint64_t pipe_stalls = 0; // backend pipes torn down by watchdog
    /// Leak gauges. Both must return to zero once traffic quiesces —
    /// the chaos tests pin that after every storm.
    std::uint64_t pending = 0;          // live PendingRequests
    std::uint64_t backend_inflight = 0; // FIFO entries across all pipes
    std::size_t backends = 0;
    std::size_t backends_up = 0;
  };
  Stats stats() const;

  /// The hedge delay a compute forward would use right now (us); 0 when
  /// hedging is disabled. Exposed for tests and the stats verb.
  double current_hedge_delay_us() const;

 private:
  friend class EpollPlane;  // the data plane shares routing state,
                            // counters, and histograms

  /// Count the line, parse it, and answer local verbs and parse errors
  /// here. Returns the response line for those, nullopt for a compute
  /// request (with *parsed filled in for the caller to route).
  std::optional<std::string> handle_local(const std::string& line,
                                          service::ParsedRequest* parsed,
                                          bool* quit);
  /// Record the e2e hit/miss span (and, when sampled, the root e2e trace
  /// span) for a routed reply and periodically re-derive the auto hedge
  /// delay.
  void finish_compute(const std::string& reply, const TraceContext& ctx,
                      std::chrono::steady_clock::time_point line_start);
  /// Fold the `spans="..."` field of a sampled backend reply into this
  /// router's rings, anchored at the attempt's send time. Winner only —
  /// called exactly once per completed sampled request.
  void ingest_backend_spans(const TraceContext& ctx,
                            const std::string& reply,
                            std::chrono::steady_clock::time_point sent_at);

  void serve_loop(int listen_fd) override;
  void stop_sessions() override;
  void refresh_gauges() const override;
  void add_stats(service::Response& r) const override;
  void refresh_hedge_delay();

  /// High-water tracking for the data plane's per-socket WriteQueues
  /// (bytes). Single writer (the loop thread); readers dump it.
  void note_writeq_bytes(std::size_t bytes) {
    std::uint64_t hw = writeq_highwater_.load(std::memory_order_relaxed);
    while (bytes > hw && !writeq_highwater_.compare_exchange_weak(
                             hw, bytes, std::memory_order_relaxed)) {
    }
  }

  RouterOptions options_;
  ShardMap shards_;
  std::unique_ptr<HealthMonitor> health_;

  // Cluster per-stage telemetry in the shell's registry (microseconds):
  //   route        — parse + canonical key + ring/health backend choice
  //   backend_wait — forward send to reply line complete (per attempt)
  //   e2e_hit      — request line read to reply ready, `ok cached=1`
  //   e2e_miss     — request line read to reply ready, computed `ok`
  // plus the event-loop health instruments:
  //   loop_iteration      — active portion of each event-loop iteration
  //   loop_dispatch_batch — ready events per nonempty epoll_wait batch
  LatencyHistogram* hist_route_;
  LatencyHistogram* hist_backend_wait_;
  LatencyHistogram* hist_e2e_hit_;
  LatencyHistogram* hist_e2e_miss_;
  LatencyHistogram* hist_loop_iteration_;
  LatencyHistogram* hist_loop_dispatch_batch_;

  // Request-outcome totals live in the registry so the `metrics` verb and
  // the Prometheus exposition see them; Counter::inc is the same relaxed
  // fetch_add the old bare atomics paid.
  Counter* counter_requests_;
  Counter* counter_routed_;
  Counter* counter_local_;
  Counter* counter_failovers_;
  Counter* counter_hedges_;
  Counter* counter_hedge_wins_;
  Counter* counter_errors_;
  Counter* counter_pipe_stalls_;
  // Runtime health gauges, refreshed at dump time (Gauge::set through a
  // stored pointer is const-safe) except the per-backend pipe inflight
  // gauges, which the single-threaded data plane keeps live.
  Gauge* gauge_pending_;
  Gauge* gauge_inflight_;
  Gauge* gauge_writeq_highwater_;
  std::vector<Gauge*> gauge_backend_inflight_;

  // Maintained by the data plane (single-threaded writer; atomic so
  // stats() can read from any thread).
  std::atomic<std::uint64_t> pending_gauge_{0};
  std::atomic<std::uint64_t> inflight_gauge_{0};
  std::atomic<std::uint64_t> writeq_highwater_{0};

  /// Cached p99-derived hedge delay (us), refreshed every
  /// kHedgeRefreshPeriod routed requests (a histogram snapshot is too
  /// expensive per request).
  static constexpr std::uint64_t kHedgeRefreshPeriod = 256;
  std::atomic<double> hedge_delay_us_{0.0};
  std::atomic<std::uint64_t> hedge_refresh_countdown_{0};
};

}  // namespace tecfan::cluster
