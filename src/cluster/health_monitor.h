// Background health checking for a fleet of tecfand backends.
//
// One monitor thread pings every backend on a fixed period. Each probe is
// one bounded dial to the backend's loopback port, the protocol's `ping`
// verb, and a close, all within `ping_timeout_ms`: no connection state
// lives between probes, and every probe exercises the same accept path
// the router's data plane redials through. A backend is marked down after
// `down_after` consecutive failures and marked up again on the first
// successful ping (a `pong=1` reply; anything else is a failure). While a
// backend is down its probes back off exponentially (with deterministic
// jitter so a restarted fleet does not probe in lockstep) up to
// `backoff_max_s`; a healthy fleet is probed at `interval_s`.
//
// The router consults up() on every route: a down backend is skipped and
// its keys fail over to the next backend on the ShardMap ring. The router
// also reports its own observations via report_failure()/report_success(),
// so a backend that dies between probes is marked down by the traffic
// that discovers it rather than one full probe period later.
//
// Traffic reports and probes race when a backend flaps faster than the
// ping interval: a probe that started before the backend died can come
// back `ok` after the traffic path already marked the backend down, and
// would resurrect it with stale evidence. State transitions are therefore
// monotonic per observation epoch: every traffic report advances the
// backend's epoch, a probe snapshots the epoch before its round trip
// (begin_probe) and its result is discarded (counted in stale_probes) if
// the epoch moved while it was in flight (finish_probe).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tecfan::cluster {

class HealthMonitor {
 public:
  struct Options {
    double interval_s = 0.1;     // probe period while up
    int down_after = 2;          // consecutive failures before markdown
    double ping_timeout_ms = 250.0;
    double backoff_base_s = 0.1; // first retry delay once down
    double backoff_max_s = 2.0;
  };

  /// Monitors the backends listening on the given loopback ports. All
  /// backends start up — optimistic, so a router can serve immediately —
  /// and the first probe round corrects that within one period.
  HealthMonitor(std::vector<std::uint16_t> ports, Options options);
  explicit HealthMonitor(std::vector<std::uint16_t> ports)
      : HealthMonitor(std::move(ports), Options{}) {}
  ~HealthMonitor();

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  void start();
  void stop();

  std::size_t backend_count() const { return ports_.size(); }
  bool up(std::size_t backend) const {
    return state_[backend]->up.load(std::memory_order_acquire);
  }
  std::size_t up_count() const;

  /// Traffic-path observations: a failed forward counts like a failed
  /// ping (accelerating markdown); a success resets the failure streak.
  /// Either advances the backend's observation epoch, invalidating any
  /// probe currently in flight.
  void report_failure(std::size_t backend);
  void report_success(std::size_t backend);

  /// Probe-side epoch handshake, public so fault-injection tests can
  /// interleave a probe with traffic reports deterministically: take a
  /// token before the round trip, hand the result back with it. A result
  /// whose token is stale (a traffic report landed in between) is
  /// discarded — the probe observed a connection from before the report.
  std::uint64_t begin_probe(std::size_t backend) const;
  void finish_probe(std::size_t backend, bool ok, std::uint64_t token);

  /// Wake the monitor thread and run one probe round now, returning after
  /// the round completes (bounded by backend_count x ping timeout). Used
  /// by tests and the failover path to re-check without waiting a period.
  void probe_now();

  struct BackendHealth {
    bool up = true;
    std::uint64_t probes = 0;        // pings attempted
    std::uint64_t probe_failures = 0;
    std::uint64_t markdowns = 0;     // up -> down transitions
    std::uint64_t stale_probes = 0;  // probe results discarded by epoch
    double last_rtt_us = 0.0;        // last successful ping round trip
  };
  BackendHealth health(std::size_t backend) const;

 private:
  struct BackendState {
    std::atomic<bool> up{true};
    std::atomic<std::uint64_t> probes{0};
    std::atomic<std::uint64_t> probe_failures{0};
    std::atomic<std::uint64_t> markdowns{0};
    std::atomic<std::uint64_t> stale_probes{0};
    std::atomic<double> last_rtt_us{0.0};
    // State-transition fields, serialized by obs_mu (uncontended in the
    // steady state: the traffic path and one monitor thread). `up` is
    // additionally atomic so the route path reads it lock-free.
    mutable std::mutex obs_mu;
    std::uint64_t epoch = 0;
    int consecutive_failures = 0;
    // Monitor-thread-only backoff bookkeeping.
    int backoff_exponent = 0;
    std::chrono::steady_clock::time_point next_probe{};
  };

  void run();
  /// Probe every backend whose next_probe has arrived; reschedule each.
  void probe_round(std::chrono::steady_clock::time_point now);
  bool ping(std::size_t backend);
  /// Apply one observation under st.obs_mu (already held).
  void apply_observation(BackendState& st, bool ok);
  double jitter_fraction();  // in [0, 0.25), monitor thread only

  std::vector<std::uint16_t> ports_;
  Options options_;
  std::vector<std::unique_ptr<BackendState>> state_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  // probe_now() handshake: a caller takes a request stamp and waits until
  // a full forced round that STARTED at or after that stamp completes (a
  // round already in flight may have skipped backed-off backends).
  std::uint64_t probe_requested_ = 0;
  std::uint64_t probe_completed_ = 0;
  std::thread thread_;
  /// Seed of the deterministic jitter stream (see jitter_fraction()).
  static constexpr std::uint64_t kJitterSeed = 0x7ec5eed;
  std::uint64_t jitter_state_ = kJitterSeed | 1;
};

}  // namespace tecfan::cluster
