#include "cluster/router.h"

#include <algorithm>

#include "cluster/epoll_plane.h"
#include "util/error.h"

namespace tecfan::cluster {
namespace {

using Clock = std::chrono::steady_clock;
using service::Request;
using service::RequestKind;
using service::Response;

}  // namespace

Router::Router(RouterOptions options)
    : Daemon("tecrouter", TraceTier::kRouter, options.trace_every),
      options_(std::move(options)),
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
      gauge_writeq_highwater_(&metrics_.gauge("writeq_highwater_bytes")) {
  TECFAN_REQUIRE(!options_.backend_ports.empty(),
                 "Router needs at least one backend port");
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
    hedge_delay_us_.store(kHedgeCeilMs * 1e3,
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
  const double clamped =
      std::clamp(p99_us, kHedgeFloorMs * 1e3, kHedgeCeilMs * 1e3);
  hedge_delay_us_.store(clamped, std::memory_order_relaxed);
}

void Router::add_stats(Response& r) const {
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

  // Local verbs (`metrics prom` included) never cross a backend pipe.
  counter_local_->inc();
  if (quit) *quit = request.kind == RequestKind::kQuit;
  return local_reply(request);
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

void Router::refresh_gauges() const {
  gauge_pending_->set(
      static_cast<double>(pending_gauge_.load(std::memory_order_relaxed)));
  gauge_inflight_->set(
      static_cast<double>(inflight_gauge_.load(std::memory_order_relaxed)));
  gauge_writeq_highwater_->set(static_cast<double>(
      writeq_highwater_.load(std::memory_order_relaxed)));
}

void Router::serve_loop(int listen_fd) {
  EpollPlane plane(*this, listen_fd);
  set_wake([&plane] { plane.request_stop(); });
  plane.run();
  set_wake(nullptr);  // before the plane it wakes is destroyed
}

void Router::stop_sessions() {
  // The plane closed its sessions and pipes on the way out of run().
  if (health_) health_->stop();
}

}  // namespace tecfan::cluster
