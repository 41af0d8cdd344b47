#include "cluster/router.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "cluster/epoll_plane.h"
#include "service/framing.h"
#include "util/error.h"

// Build identification for the `stats` verb (git describe at configure
// time; see src/cluster/CMakeLists.txt). Matches the tecfand field so
// operators can check a whole deployment runs one build.
#ifndef TECFAN_BUILD_INFO
#define TECFAN_BUILD_INFO "unknown"
#endif

namespace tecfan::cluster {
namespace {

using Clock = std::chrono::steady_clock;
using service::Request;
using service::RequestKind;
using service::Response;

}  // namespace

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      shards_(options_.backend_ports.size(), options_.virtual_nodes),
      hist_route_(&metrics_.histogram("route")),
      hist_backend_wait_(&metrics_.histogram("backend_wait")),
      hist_e2e_hit_(&metrics_.histogram("e2e_hit")),
      hist_e2e_miss_(&metrics_.histogram("e2e_miss")),
      hist_loop_iteration_(&metrics_.histogram("loop_iteration")),
      hist_loop_dispatch_batch_(&metrics_.histogram("loop_dispatch_batch")),
      counter_requests_(&metrics_.counter("requests")),
      counter_routed_(&metrics_.counter("routed")),
      counter_local_(&metrics_.counter("local")),
      counter_failovers_(&metrics_.counter("failovers")),
      counter_hedges_(&metrics_.counter("hedges")),
      counter_hedge_wins_(&metrics_.counter("hedge_wins")),
      counter_errors_(&metrics_.counter("errors")),
      counter_pipe_stalls_(&metrics_.counter("pipe_stalls")),
      gauge_pending_(&metrics_.gauge("pending_requests")),
      gauge_inflight_(&metrics_.gauge("backend_inflight")),
      gauge_writeq_highwater_(&metrics_.gauge("writeq_highwater_bytes")),
      gauge_trace_open_spans_(&metrics_.gauge("trace_open_spans")) {
  TECFAN_REQUIRE(!options_.backend_ports.empty(),
                 "Router needs at least one backend port");
  tracer_.set_sample_every(options_.trace_every);
  gauge_backend_inflight_.reserve(options_.backend_ports.size());
  for (std::size_t b = 0; b < options_.backend_ports.size(); ++b)
    gauge_backend_inflight_.push_back(
        &metrics_.gauge("backend" + std::to_string(b) + "_pipe_inflight"));
  health_ = std::make_unique<HealthMonitor>(options_.backend_ports,
                                            options_.health);
  if (options_.hedge_ms > 0)
    hedge_delay_us_.store(options_.hedge_ms * 1e3,
                          std::memory_order_relaxed);
  else if (options_.hedge_ms == 0)
    hedge_delay_us_.store(options_.hedge_ceil_ms * 1e3,
                          std::memory_order_relaxed);
  health_->start();
}

Router::~Router() { stop(); }

double Router::current_hedge_delay_us() const {
  if (options_.hedge_ms < 0) return 0.0;
  return hedge_delay_us_.load(std::memory_order_relaxed);
}

void Router::refresh_hedge_delay() {
  // Auto mode only: derive the delay from the observed miss-path e2e p99
  // so hedges fire for tail stragglers, not for the median compute.
  const LatencyHistogram::Snapshot snap = hist_e2e_miss_->snapshot();
  if (snap.count < 32) return;  // keep the conservative ceiling
  const double p99_us = snap.percentile(99.0);
  const double clamped = std::clamp(p99_us, options_.hedge_floor_ms * 1e3,
                                    options_.hedge_ceil_ms * 1e3);
  hedge_delay_us_.store(clamped, std::memory_order_relaxed);
}

std::string Router::stats_response_line() const {
  Response r;
  r.add("name", std::string("tecrouter"));
  r.add("pid", static_cast<std::uint64_t>(::getpid()));
  // Same build/uptime fields as tecfand's stats verb, so one fleet-wide
  // `stats` sweep answers "which build, up how long" for every process.
  r.add("build", std::string(TECFAN_BUILD_INFO));
  r.add("uptime_s",
        std::chrono::duration<double>(Clock::now() - started_at_).count());
  const Stats s = stats();
  r.add("backends", static_cast<std::uint64_t>(s.backends));
  r.add("backends_up", static_cast<std::uint64_t>(s.backends_up));
  r.add("virtual_nodes",
        static_cast<std::uint64_t>(shards_.virtual_nodes()));
  r.add("requests", s.requests);
  r.add("routed", s.routed);
  r.add("local", s.local);
  r.add("failovers", s.failovers);
  r.add("hedges", s.hedges);
  r.add("hedge_wins", s.hedge_wins);
  r.add("errors", s.errors);
  r.add("pipe_stalls", s.pipe_stalls);
  r.add("pending", s.pending);
  r.add("backend_inflight", s.backend_inflight);
  r.add("traces_sampled", tracer_.sampled_traces());
  r.add("traces_adopted", tracer_.adopted_traces());
  r.add("hedge_delay_us", current_hedge_delay_us());
  for (std::size_t b = 0; b < options_.backend_ports.size(); ++b) {
    const std::string prefix = "backend" + std::to_string(b) + "_";
    const HealthMonitor::BackendHealth h = health_->health(b);
    r.add(prefix + "port",
          static_cast<std::uint64_t>(options_.backend_ports[b]));
    r.add(prefix + "up", std::string(h.up ? "1" : "0"));
    r.add(prefix + "probes", h.probes);
    r.add(prefix + "probe_failures", h.probe_failures);
    r.add(prefix + "markdowns", h.markdowns);
    r.add(prefix + "stale_probes", h.stale_probes);
    r.add(prefix + "rtt_us", h.last_rtt_us);
  }
  return serialize_response(r);
}

std::optional<std::string> Router::handle_local(const std::string& line,
                                                service::ParsedRequest* parsed,
                                                bool* quit) {
  if (quit) *quit = false;
  counter_requests_->inc();

  *parsed = service::parse_request(line);
  if (!parsed->ok) {
    counter_errors_->inc();
    return serialize_response(Response::make_error(parsed->error));
  }
  const Request& request = parsed->request;
  if (request.is_compute()) return std::nullopt;

  counter_local_->inc();
  switch (request.kind) {
    case RequestKind::kPing: {
      Response r;
      r.add("pong", std::string("1"));
      return serialize_response(r);
    }
    case RequestKind::kQuit: {
      if (quit) *quit = true;
      Response r;
      r.add("bye", std::string("1"));
      return serialize_response(r);
    }
    case RequestKind::kStats:
      return stats_response_line();
    case RequestKind::kTrace:
      return trace_response_line(parsed->request.trace_limit);
    case RequestKind::kMetrics:
      // `metrics prom` is the protocol's one multi-line response (raw
      // Prometheus exposition ending in "# EOF"); both it and the plain
      // verb are answered locally and never cross a backend pipe.
      if (request.format == "prom") return prom_exposition();
      return serialize_response(
          service::metrics_to_response(metrics_snapshot()));
    default:
      break;
  }
  counter_errors_->inc();
  return serialize_response(Response::make_error("unhandled verb"));
}

void Router::finish_compute(const std::string& reply, const TraceContext& ctx,
                            Clock::time_point line_start) {
  const auto now = Clock::now();
  // This tier's root span closes with the reply regardless of outcome —
  // error traces (failover exhaustion, deadline) complete too.
  if (ctx.sampled) tracer_.record_root(ctx, line_start, now);
  // Hit/miss-split end-to-end span, mirroring the backend Server: replies
  // are forwarded verbatim, so `ok cached=1` identifies a shard-cache hit.
  if (reply.rfind("ok cached=1", 0) == 0) {
    hist_e2e_hit_->record(now - line_start);
  } else if (reply.rfind("ok", 0) == 0) {
    hist_e2e_miss_->record(now - line_start);
    // Periodically re-derive the auto hedge delay from the miss tail.
    if (options_.hedge_ms == 0 &&
        hedge_refresh_countdown_.fetch_add(1, std::memory_order_relaxed) %
                kHedgeRefreshPeriod ==
            kHedgeRefreshPeriod - 1) {
      refresh_hedge_delay();
    }
  }
}

void Router::ingest_backend_spans(const TraceContext& ctx,
                                  const std::string& reply,
                                  Clock::time_point sent_at) {
  // The encoding has no protocol-special characters, so the serializer
  // emits it bare; accept the quoted form too in case that ever changes.
  const std::size_t pos = reply.find(" spans=");
  if (pos == std::string::npos) return;
  std::size_t begin = pos + 7;
  std::size_t end;
  if (begin < reply.size() && reply[begin] == '"') {
    ++begin;
    end = reply.find('"', begin);
    if (end == std::string::npos) return;
  } else {
    end = reply.find(' ', begin);
    if (end == std::string::npos) end = reply.size();
  }
  const std::vector<ReplySpan> spans = decode_reply_spans(
      std::string_view(reply).substr(begin, end - begin));
  if (spans.empty()) return;

  // Anchor the backend's relative starts at our send time: the backend's
  // own clock never crosses the wire, so its line_start maps onto the
  // attempt's sent_at (off by at most the one-way network delay — within
  // the slop the duration-consistency checks allow).
  const std::uint64_t base_us = tracer_.to_us(sent_at);
  // The backend's e2e root (when present) parents its siblings and hangs
  // off this router's root span; span ids only need per-trace uniqueness,
  // so the router's id sequence serves for ingested spans too.
  std::uint64_t backend_root = 0;
  for (const ReplySpan& s : spans)
    if (s.name == SpanName::kE2e) {
      backend_root = tracer_.next_span_id();
      break;
    }
  for (const ReplySpan& s : spans) {
    const bool is_root = s.name == SpanName::kE2e;
    const std::uint64_t span_id =
        is_root ? backend_root : tracer_.next_span_id();
    const std::uint64_t parent =
        is_root || backend_root == 0 ? ctx.span_id : backend_root;
    tracer_.record_span(ctx.trace_id, span_id, parent, s.name,
                        TraceTier::kServer, s.thread,
                        base_us + s.start_rel_us, s.duration_us);
  }
}

Router::Stats Router::stats() const {
  Stats s;
  s.requests = counter_requests_->value();
  s.routed = counter_routed_->value();
  s.local = counter_local_->value();
  s.failovers = counter_failovers_->value();
  s.hedges = counter_hedges_->value();
  s.hedge_wins = counter_hedge_wins_->value();
  s.errors = counter_errors_->value();
  s.pipe_stalls = counter_pipe_stalls_->value();
  s.pending = pending_gauge_.load(std::memory_order_relaxed);
  s.backend_inflight = inflight_gauge_.load(std::memory_order_relaxed);
  s.backends = options_.backend_ports.size();
  s.backends_up = health_->up_count();
  return s;
}

MetricsRegistry::Snapshot Router::metrics_snapshot() const {
  gauge_pending_->set(
      static_cast<double>(pending_gauge_.load(std::memory_order_relaxed)));
  gauge_inflight_->set(
      static_cast<double>(inflight_gauge_.load(std::memory_order_relaxed)));
  gauge_writeq_highwater_->set(static_cast<double>(
      writeq_highwater_.load(std::memory_order_relaxed)));
  gauge_trace_open_spans_->set(static_cast<double>(tracer_.open_spans()));
  return metrics_.snapshot();
}

std::string Router::trace_response_line(int limit) const {
  const std::vector<CompletedTrace> traces =
      tracer_.completed_traces(static_cast<std::size_t>(limit));
  Response r;
  r.add("traces", static_cast<std::uint64_t>(traces.size()));
  // One JSON object per trace in numbered fields, same shape as tecfand's
  // trace verb; for routed sampled requests each object already contains
  // the ingested backend spans, so this single response carries the whole
  // cross-tier tree.
  for (std::size_t i = 0; i < traces.size(); ++i)
    r.add("t" + std::to_string(i), trace_to_json(traces[i]));
  return serialize_response(r);
}

std::string Router::prom_exposition() const {
  std::string body = render_prometheus(metrics_snapshot());
  if (!body.empty() && body.back() == '\n') body.pop_back();
  return body;
}

std::uint16_t Router::bind_listen(std::uint16_t port) {
  TECFAN_REQUIRE(listen_fd_.load() < 0, "already listening");
  const service::Listener listener = service::listen_loopback(port);
  listen_fd_.store(listener.fd);
  bound_port_.store(listener.port);
  return listener.port;
}

void Router::serve() {
  const int listen_fd = listen_fd_.load();
  if (listen_fd < 0) {
    // stop() may win the race against a serve() thread that was just
    // launched; that is a clean no-op, not a programming error.
    TECFAN_REQUIRE(stopping_.load(), "call bind_listen() before serve()");
    return;
  }
  EpollPlane plane(*this, listen_fd);
  {
    std::lock_guard<std::mutex> lock(serve_mu_);
    if (stopping_.load()) return;  // stop() already reclaimed the socket
    serve_running_ = true;
    plane_ = &plane;
  }
  plane.run();
  {
    std::lock_guard<std::mutex> lock(serve_mu_);
    serve_running_ = false;
    plane_ = nullptr;
  }
  serve_cv_.notify_all();
}

void Router::stop() {
  int listen_fd;
  {
    // Same handshake as service::Server::stop(): stopping_ flips under
    // serve_mu_ so a racing serve() either sees it and returns or
    // registers serve_running_ first and is woken by the shutdown().
    std::lock_guard<std::mutex> lock(serve_mu_);
    stopping_.store(true);
    listen_fd = listen_fd_.exchange(-1);
    if (plane_) plane_->request_stop();  // wake the plane's loop
  }
  if (listen_fd >= 0) {
    ::shutdown(listen_fd, SHUT_RDWR);
    {
      std::unique_lock<std::mutex> lock(serve_mu_);
      serve_cv_.wait(lock, [this] { return !serve_running_; });
    }
    ::close(listen_fd);
  }
  if (health_) health_->stop();
}

}  // namespace tecfan::cluster
