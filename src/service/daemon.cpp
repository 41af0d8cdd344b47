#include "service/daemon.h"

#include <sys/socket.h>
#include <unistd.h>

#include <exception>
#include <utility>
#include <vector>

#include "service/framing.h"
#include "util/error.h"

// Build identification for the `stats` verb (git describe at configure
// time; see src/service/CMakeLists.txt). Both daemons report it, so one
// fleet-wide `stats` sweep shows whether a deployment runs one build.
#ifndef TECFAN_BUILD_INFO
#define TECFAN_BUILD_INFO "unknown"
#endif

namespace tecfan::service {

Daemon::Daemon(std::string name, TraceTier tier, std::uint64_t trace_every)
    : tracer_(tier),
      name_(std::move(name)),
      gauge_trace_open_spans_(&metrics_.gauge("trace_open_spans")) {
  tracer_.set_sample_every(trace_every);
}

std::uint16_t Daemon::bind_listen(std::uint16_t port) {
  TECFAN_REQUIRE(listen_fd_.load() < 0, "already listening");
  const Listener listener = listen_loopback(port);
  listen_fd_.store(listener.fd);
  return listener.port;
}

void Daemon::serve() {
  int listen_fd;
  {
    std::lock_guard<std::mutex> lock(serve_mu_);
    if (stopping_.load()) return;  // stop() already reclaimed the socket
    listen_fd = listen_fd_.load();
    TECFAN_REQUIRE(listen_fd >= 0, "call bind_listen() before serve()");
    serve_running_ = true;
  }
  // Deregisters even when serve_loop() throws, so stop() never waits on a
  // loop that is gone.
  struct Finished {
    Daemon& daemon;
    ~Finished() {
      {
        std::lock_guard<std::mutex> lock(daemon.serve_mu_);
        daemon.serve_running_ = false;
      }
      daemon.serve_cv_.notify_all();
    }
  } finished{*this};
  serve_loop(listen_fd);
}

std::uint16_t Daemon::start(std::uint16_t port) {
  // Under serve_mu_ so a racing stop() either finds the thread to join or
  // runs first and leaves serve() a no-op.
  std::lock_guard<std::mutex> lock(serve_mu_);
  const std::uint16_t bound = bind_listen(port);
  serve_thread_ = std::thread([this] {
    try {
      serve();
    } catch (...) {
      serve_error_ = std::current_exception();  // stop() rethrows it
    }
  });
  return bound;
}

void Daemon::stop() {
  int listen_fd;
  std::thread serving;
  {
    // stopping_ flips under serve_mu_, so a serve() that has not yet
    // registered serve_running_ either sees it and returns, or registers
    // first and is then woken below. The wake runs under the lock too:
    // set_wake(nullptr) then cannot return while it runs.
    std::lock_guard<std::mutex> lock(serve_mu_);
    stopping_.store(true);
    listen_fd = listen_fd_.exchange(-1);
    if (wake_) wake_();
    serving.swap(serve_thread_);
  }
  if (listen_fd >= 0) {
    // Wake a blocking accept(), wait for serve() to leave, then reclaim
    // the fd (closing it while serve_loop() still polls it would race).
    ::shutdown(listen_fd, SHUT_RDWR);
    {
      std::unique_lock<std::mutex> lock(serve_mu_);
      serve_cv_.wait(lock, [this] { return !serve_running_; });
    }
    ::close(listen_fd);
  }
  std::exception_ptr error;
  if (serving.joinable()) {
    serving.join();
    error = std::exchange(serve_error_, nullptr);
  }
  stop_sessions();
  if (error) std::rethrow_exception(error);
}

void Daemon::set_wake(std::function<void()> wake) {
  std::lock_guard<std::mutex> lock(serve_mu_);
  if (wake && stopping_.load()) wake();
  wake_ = std::move(wake);
}

MetricsRegistry::Snapshot Daemon::metrics_snapshot() const {
  gauge_trace_open_spans_->set(static_cast<double>(tracer_.open_spans()));
  refresh_gauges();
  return metrics_.snapshot();
}

std::string Daemon::local_reply(const Request& request) const {
  Response r;
  switch (request.kind) {
    case RequestKind::kPing:
      r.add("pong", std::string("1"));
      break;
    case RequestKind::kQuit:
      r.add("bye", std::string("1"));
      break;
    case RequestKind::kStats:
      // Identity first: name/pid/build let the cluster layer and
      // operators tell otherwise-identical fleet members apart.
      r.add("name", name_);
      r.add("pid", static_cast<std::uint64_t>(::getpid()));
      r.add("build", std::string(TECFAN_BUILD_INFO));
      r.add("uptime_s", std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - started_at_)
                            .count());
      r.add("traces_sampled", tracer_.sampled_traces());
      r.add("traces_adopted", tracer_.adopted_traces());
      add_stats(r);
      break;
    case RequestKind::kMetrics:
      if (request.format == "prom") {
        std::string body = render_prometheus(metrics_snapshot());
        if (!body.empty() && body.back() == '\n') body.pop_back();
        return body;
      }
      r = metrics_to_response(metrics_snapshot());
      break;
    case RequestKind::kTrace: {
      const std::vector<CompletedTrace> traces = tracer_.completed_traces(
          static_cast<std::size_t>(request.trace_limit));
      r.add("traces", static_cast<std::uint64_t>(traces.size()));
      // One JSON object per trace in numbered fields; values are quoted
      // on the wire, so the reply stays one protocol line and tracecat
      // re-emits the objects as JSON lines.
      for (std::size_t i = 0; i < traces.size(); ++i)
        r.add("t" + std::to_string(i), trace_to_json(traces[i]));
      break;
    }
    default:
      r = Response::make_error("not a local verb");
      break;
  }
  return serialize_response(r);
}

}  // namespace tecfan::service
