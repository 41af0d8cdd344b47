// The shell tecfand (service::Server) and tecrouter (cluster::Router)
// share: everything around their sessions.
//
//   * Listener lifecycle. bind_listen() → serve() → stop(): serve() hands
//     the bound loopback socket to the daemon's serve_loop() and returns
//     once stop() has shut the socket down (and run the wake the loop
//     registered, for loops that do not block in accept()). stop() waits
//     for serve() to leave before it closes the socket, so the two may
//     race from any threads. start() runs serve() on a thread the daemon
//     owns, and stop() joins it; embedders (tests, loadgen, the chaos
//     fleet) need no serve thread of their own.
//   * Local verbs. ping, quit, stats, metrics, metrics prom and
//     trace limit=N are answered the same way by both daemons. `stats`
//     opens with the identity fields (name, pid, build, uptime_s,
//     traces_sampled, traces_adopted) and continues with the daemon's own.
//   * Observability state the verbs read: the daemon's MetricsRegistry
//     (each daemon registers its instruments in it) and its Tracer.
//
// Each daemon keeps the session model its traffic needs: tecfand a thread
// per connection, tecrouter one epoll data plane.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "service/request.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace tecfan::service {

class Daemon {
 public:
  virtual ~Daemon() = default;

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Bind a loopback listening socket; port 0 picks an ephemeral port.
  /// Returns the bound port. Call before serve().
  std::uint16_t bind_listen(std::uint16_t port);

  /// Serve the bound socket on the calling thread; returns after stop().
  /// A stop() that wins the race against a just-launched serve() makes
  /// it a clean no-op.
  void serve();

  /// bind_listen(port), then serve() on a thread this daemon owns; stop()
  /// joins it. Returns the bound port.
  std::uint16_t start(std::uint16_t port = 0);

  /// Stop serving: shut the listening socket down, wait for serve() to
  /// return, close the socket, join start()'s thread, then close the
  /// daemon's sessions (stop_sessions()). Idempotent. Each daemon's
  /// destructor calls it before destroying anything serving uses. Rethrows
  /// what made start()'s serve() fail, if anything did.
  void stop();

  /// One coherent dump: refresh the runtime gauges, then capture every
  /// instrument under a single registry lock hold. Every dump path — the
  /// `metrics` verb, `metrics prom`, and the daemons' periodic stderr
  /// logger — renders from one of these.
  MetricsRegistry::Snapshot metrics_snapshot() const;
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Span recorder for this tier; the `trace` verb dumps its completed
  /// traces.
  const Tracer& tracer() const { return tracer_; }
  Tracer& tracer() { return tracer_; }

 protected:
  /// `name` is the `stats` name; `trace_every` the head-sampling period
  /// (0 = off).
  Daemon(std::string name, TraceTier tier, std::uint64_t trace_every);

  /// Accept and serve connections on `listen_fd` until stopping(). The
  /// socket is shut down by stop(); a loop that does not block in
  /// accept() also registers a wake with set_wake().
  virtual void serve_loop(int listen_fd) = 0;
  /// Close the sessions serving left open and release what they hold.
  /// stop() calls it once serve() has returned.
  virtual void stop_sessions() = 0;
  /// Set this daemon's runtime gauges from live state (metrics_snapshot()).
  virtual void refresh_gauges() const = 0;
  /// Append this daemon's `stats` fields after the identity fields.
  virtual void add_stats(Response& r) const = 0;

  /// How stop() wakes the running serve_loop(); call from inside it. If
  /// stop() already ran, `wake` runs at once. Clear it (nullptr) before
  /// whatever it wakes is destroyed.
  void set_wake(std::function<void()> wake);
  bool stopping() const { return stopping_.load(); }

  /// The reply to a local verb (any non-compute request), without the
  /// trailing newline. `metrics prom` is the protocol's one multi-line
  /// reply: the raw Prometheus exposition ending in "# EOF".
  std::string local_reply(const Request& request) const;

  MetricsRegistry metrics_;
  Tracer tracer_;

 private:
  const std::string name_;
  const std::chrono::steady_clock::time_point started_at_ =
      std::chrono::steady_clock::now();
  Gauge* gauge_trace_open_spans_;

  // listen_fd_ is handed from bind_listen() to serve() and reclaimed by
  // stop(), which may run on another thread; the serve_running_
  // handshake keeps stop() from closing the socket while serve_loop()
  // still uses it.
  std::atomic<int> listen_fd_{-1};
  std::atomic<bool> stopping_{false};
  std::mutex serve_mu_;
  std::condition_variable serve_cv_;
  bool serve_running_ = false;
  std::function<void()> wake_;  // under serve_mu_
  std::thread serve_thread_;    // start()'s; under serve_mu_
  std::exception_ptr serve_error_;  // its failure; read after the join
};

}  // namespace tecfan::service
