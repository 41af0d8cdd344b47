#include "service/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <future>
#include <istream>
#include <ostream>

#include "core/policy_factory.h"
#include "perf/splash2.h"
#include "service/framing.h"
#include "sim/experiment.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/units.h"

namespace tecfan::service {
namespace {

void add_run_fields(Response& r, const sim::RunResult& run) {
  r.add("fan_level", static_cast<std::uint64_t>(run.fan_level));
  r.add("time_ms", run.exec_time_s * 1e3);
  r.add("energy_j", run.energy_j);
  r.add("edp_js", run.edp());
  r.add("avg_power_w", run.avg_total_power_w());
  r.add("peak_t_c", kelvin_to_celsius(run.peak_temp_k));
  r.add("mean_peak_t_c", kelvin_to_celsius(run.mean_peak_temp_k));
  r.add("violations_pct", 100.0 * run.violation_frac);
  r.add("avg_dvfs", run.avg_dvfs);
  r.add("completed", std::string(run.completed ? "1" : "0"));
}

}  // namespace

std::size_t default_worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return 2;
  return std::clamp<std::size_t>(hw, 2, 16);
}

Server::Server(ServerOptions options)
    : Daemon(options.instance_name.empty() ? "tecfand"
                                           : options.instance_name,
             TraceTier::kServer, options.trace_every),
      options_(options),
      engine_(sim::make_chip_engine(options.tiles_x, options.tiles_y)),
      cache_(options.cache_capacity),
      hist_parse_(&metrics_.histogram("parse")),
      hist_cache_probe_(&metrics_.histogram("cache_probe")),
      hist_queue_wait_(&metrics_.histogram("queue_wait")),
      hist_compute_(&metrics_.histogram("compute")),
      hist_serialize_(&metrics_.histogram("serialize")),
      hist_e2e_hit_(&metrics_.histogram("e2e_hit")),
      hist_e2e_miss_(&metrics_.histogram("e2e_miss")),
      counter_requests_(&metrics_.counter("requests")),
      counter_computes_(&metrics_.counter("computes")),
      counter_errors_(&metrics_.counter("errors")),
      gauge_pool_queue_depth_(&metrics_.gauge("pool_queue_depth")),
      pool_(options.workers, options.queue_capacity, hist_queue_wait_) {
  gauge_cache_shards_.reserve(cache_.shard_count());
  for (std::size_t i = 0; i < cache_.shard_count(); ++i)
    gauge_cache_shards_.push_back(
        &metrics_.gauge("cache_shard" + std::to_string(i) + "_entries"));
}

Server::~Server() { stop(); }

Response Server::handle(const Request& request) {
  if (!request.is_compute())
    return Response::make_error("not a compute request");
  return dispatch(request);
}

Response Server::dispatch(const Request& request) {
  // Serving fast path: answer cache hits on the session thread, without a
  // queue round-trip.
  counter_requests_->inc();
  const auto probe_start = std::chrono::steady_clock::now();
  ScopedLatencyTimer probe(hist_cache_probe_, probe_start);
  const std::string key = canonical_key(request);
  if (auto hit = cache_.get(key)) {
    probe.stop();
    if (request.trace.sampled)
      tracer_.record(request.trace, SpanName::kCacheProbe, probe_start,
                     std::chrono::steady_clock::now());
    Response r = parse_response(*hit);
    r.cached = true;
    return r;
  }
  probe.stop();
  if (request.trace.sampled)
    tracer_.record(request.trace, SpanName::kCacheProbe, probe_start,
                   std::chrono::steady_clock::now());

  auto deadline = std::chrono::steady_clock::time_point::max();
  const double deadline_ms = request.deadline_ms > 0
                                 ? request.deadline_ms
                                 : options_.default_deadline_ms;
  if (deadline_ms > 0)
    deadline = std::chrono::steady_clock::now() +
               std::chrono::microseconds(
                   static_cast<std::int64_t>(deadline_ms * 1e3));

  auto promise = std::make_shared<std::promise<Response>>();
  auto future = promise->get_future();
  const auto submit_time = std::chrono::steady_clock::now();
  const bool accepted = pool_.submit(
      [this, request, promise, submit_time] {
        // Queue residency as a span: the pool records the same interval
        // into the queue_wait histogram; sampled requests additionally
        // pin it to their trace.
        if (request.trace.sampled)
          tracer_.record(request.trace, SpanName::kQueueWait, submit_time,
                         std::chrono::steady_clock::now());
        Response r = execute(request);
        if (r.status == Response::Status::kOk) {
          cache_.put(canonical_key(request), serialize_response(r));
        } else {
          counter_errors_->inc();
        }
        promise->set_value(std::move(r));
      },
      [this, promise] {
        counter_errors_->inc();
        promise->set_value(Response::make_error("deadline exceeded"));
      },
      deadline);
  if (!accepted) return Response::make_busy();
  return future.get();
}

Response Server::execute(const Request& request) {
  counter_computes_->inc();
  // The compute span covers workspace construction, the simulation itself
  // and response assembly — everything between dequeue and serialize.
  ScopedLatencyTimer span(hist_compute_);
  ScopedSpan trace_span(&tracer_, request.trace, SpanName::kCompute);
  try {
    // Per-compute workspace over the shared engine: microseconds to build,
    // nothing mutable crosses threads.
    sim::ChipSimulator simulator(engine_);
    Response r;
    switch (request.kind) {
      case RequestKind::kEquilibrium:
        r = do_equilibrium(simulator, request);
        break;
      case RequestKind::kRun:
        r = do_run(simulator, request);
        break;
      case RequestKind::kSweep:
        r = do_sweep(simulator, request);
        break;
      case RequestKind::kTable1:
        r = do_table1(simulator, request);
        break;
      default:
        return Response::make_error("not a compute request");
    }
    // Record the largest workspace any compute needed (stats/loadgen use
    // this as the per-worker marginal memory cost).
    std::size_t seen = workspace_bytes_.load(std::memory_order_relaxed);
    const std::size_t now = simulator.workspace_bytes();
    while (now > seen &&
           !workspace_bytes_.compare_exchange_weak(
               seen, now, std::memory_order_relaxed)) {
    }
    return r;
  } catch (const std::exception& e) {
    return Response::make_error(e.what());
  }
}

sim::RunResult Server::base_scenario(sim::ChipSimulator& simulator,
                                     const perf::Workload& wl) {
  const std::string key = std::string(wl.name()) + "/" +
                          std::to_string(wl.thread_count());
  {
    std::lock_guard<std::mutex> lock(base_mu_);
    auto it = base_results_.find(key);
    if (it != base_results_.end()) return it->second;
  }
  sim::RunResult base =
      sim::measure_base_scenario(simulator, wl, options_.max_sim_time_s);
  base.trace.clear();  // the anchor numbers are all we keep
  std::lock_guard<std::mutex> lock(base_mu_);
  return base_results_.emplace(key, std::move(base)).first->second;
}

Response Server::do_equilibrium(sim::ChipSimulator& simulator,
                                const Request& request) {
  const auto& models = engine_->models();
  if (request.fan >= models.fan.level_count())
    return Response::make_error("fan level out of range (0.." +
                                std::to_string(models.fan.level_count() - 1) +
                                ")");
  if (request.dvfs >= models.dvfs.level_count())
    return Response::make_error("dvfs level out of range (0.." +
                                std::to_string(models.dvfs.level_count() - 1) +
                                ")");
  auto wl = engine_->workload(request.workload, request.threads);
  const auto& thermal = *models.thermal;
  core::KnobState knobs = core::KnobState::initial(
      thermal.floorplan().core_count(), thermal.tec_count(), request.fan);
  for (int& d : knobs.dvfs) d = request.dvfs;
  for (auto& on : knobs.tec_on) on = request.tec_on ? 1 : 0;

  const linalg::Vector temps = simulator.equilibrium(*wl, knobs);
  double peak = 0.0;
  for (std::size_t c = 0; c < thermal.component_count(); ++c)
    peak = std::max(peak, temps[c]);

  Response r;
  r.add("peak_t_k", peak);
  r.add("peak_t_c", kelvin_to_celsius(peak));
  r.add("fan_w", models.fan.power_w(request.fan));
  return r;
}

Response Server::do_run(sim::ChipSimulator& simulator,
                        const Request& request) {
  const auto& models = engine_->models();
  if (request.fan >= models.fan.level_count())
    return Response::make_error("fan level out of range (0.." +
                                std::to_string(models.fan.level_count() - 1) +
                                ")");
  // Policies share the engine's ControlEngine: one thread's decide() only
  // mutates its own workspace, so run requests stay allocation-light and
  // safely concurrent across the worker pool.
  core::PolicyPtr policy =
      core::make_named_policy(request.policy, engine_->control());
  if (!policy)
    return Response::make_error("unknown policy '" + request.policy + "'");
  auto wl = engine_->workload(request.workload, request.threads);
  const sim::RunResult base = base_scenario(simulator, *wl);

  sim::RunConfig cfg;
  cfg.threshold_k = base.peak_temp_k;
  cfg.fan_level = request.fan;
  cfg.max_sim_time_s = options_.max_sim_time_s;
  cfg.record_trace = false;
  const sim::RunResult run = simulator.run(*policy, *wl, cfg);

  Response r;
  r.add("policy", std::string(run.policy));
  r.add("workload", std::string(run.workload));
  r.add("threshold_c", kelvin_to_celsius(base.peak_temp_k));
  add_run_fields(r, run);
  return r;
}

Response Server::do_sweep(sim::ChipSimulator& simulator,
                          const Request& request) {
  core::PolicyPtr probe =
      core::make_named_policy(request.policy, engine_->control());
  if (!probe)
    return Response::make_error("unknown policy '" + request.policy + "'");
  auto wl = engine_->workload(request.workload, request.threads);
  const sim::RunResult base = base_scenario(simulator, *wl);

  sim::SweepOptions opts;
  opts.threshold_k = base.peak_temp_k;
  opts.max_sim_time_s = options_.max_sim_time_s;
  opts.record_trace = false;
  // TECfan's sweep emulates its higher-level fan loop (see
  // sim/experiment.h): only marginal DVFS engagement qualifies a level.
  if (request.policy.rfind("tecfan", 0) == 0) opts.max_mean_dvfs = 0.5;

  // Like `equilibrium`, the sweep reuses the shared engine with throwaway
  // per-level workspaces; each level's policy shares the ControlEngine too.
  const std::string policy_name = request.policy;
  const core::ControlEnginePtr control = engine_->control();
  const sim::SweepResult sweep = sim::run_with_fan_sweep(
      simulator.engine_ptr(),
      [&policy_name, &control] {
        return core::make_named_policy(policy_name, control);
      },
      *wl, opts);

  Response r;
  r.add("policy", std::string(sweep.chosen.policy));
  r.add("workload", std::string(sweep.chosen.workload));
  r.add("threshold_c", kelvin_to_celsius(base.peak_temp_k));
  r.add("levels_tried", static_cast<std::uint64_t>(sweep.per_level.size()));
  add_run_fields(r, sweep.chosen);
  return r;
}

Response Server::do_table1(sim::ChipSimulator& simulator,
                           const Request& request) {
  const perf::Table1Case& paper =
      perf::table1_case(request.workload, request.threads);
  auto wl = engine_->workload(request.workload, request.threads);
  const sim::RunResult base = base_scenario(simulator, *wl);

  Response r;
  r.add("workload", paper.benchmark);
  r.add("threads", static_cast<std::uint64_t>(paper.threads));
  r.add("instructions", paper.instructions);
  r.add("paper_time_ms", paper.time_ms);
  r.add("meas_time_ms", base.exec_time_s * 1e3);
  r.add("paper_power_w", paper.power_w);
  r.add("meas_power_w", base.avg_power.chip_w());
  r.add("paper_peak_c", paper.peak_temp_c);
  r.add("meas_peak_c", kelvin_to_celsius(base.peak_temp_k));
  return r;
}

void Server::add_stats(Response& r) const {
  const Stats s = stats();
  r.add("solve_backend",
        std::string(engine_->thermal()->banded() ? "banded" : "dense"));
  r.add("requests", s.requests);
  r.add("computes", s.computes);
  r.add("errors", s.errors);
  r.add("cache_hits", s.cache.hits);
  r.add("cache_misses", s.cache.misses);
  r.add("cache_evictions", s.cache.evictions);
  r.add("cache_size", static_cast<std::uint64_t>(s.cache.size));
  r.add("cache_hit_rate", s.cache.hit_rate());
  r.add("pool_submits", s.pool.submits);
  r.add("pool_executed", s.pool.executed);
  r.add("pool_failed", s.pool.failed);
  r.add("pool_expired", s.pool.expired);
  r.add("pool_rejected", s.pool.rejected);
  r.add("pool_queued", static_cast<std::uint64_t>(s.pool.queued));
  r.add("workers", static_cast<std::uint64_t>(s.pool.workers));
  r.add("engine_bytes", static_cast<std::uint64_t>(s.engine_bytes));
  r.add("workspace_bytes", static_cast<std::uint64_t>(s.workspace_bytes));
}

void Server::refresh_gauges() const {
  gauge_pool_queue_depth_->set(static_cast<double>(pool_.stats().queued));
  const std::vector<std::size_t> shard_sizes = cache_.shard_sizes();
  for (std::size_t i = 0;
       i < shard_sizes.size() && i < gauge_cache_shards_.size(); ++i)
    gauge_cache_shards_[i]->set(static_cast<double>(shard_sizes[i]));
}

Server::Stats Server::stats() const {
  Stats s;
  s.requests = counter_requests_->value();
  s.computes = counter_computes_->value();
  s.errors = counter_errors_->value();
  s.cache = cache_.stats();
  s.pool = pool_.stats();
  s.engine_bytes = engine_->memory_bytes();
  s.workspace_bytes = workspace_bytes_.load(std::memory_order_relaxed);
  return s;
}

std::string Server::handle_line(const std::string& line, bool* quit) {
  // Adjacent spans share clock reads (line start doubles as the parse
  // start, the serialize end doubles as the end-to-end end) to keep the
  // per-line instrumentation cost down.
  const auto line_start = std::chrono::steady_clock::now();
  if (quit) *quit = false;
  ScopedLatencyTimer parse_span(hist_parse_, line_start);
  ParsedRequest parsed = parse_request(line);
  parse_span.stop();
  if (!parsed.ok) {
    counter_requests_->inc();
    counter_errors_->inc();
    return serialize_response(Response::make_error(parsed.error));
  }
  Request& request = parsed.request;
  if (!request.is_compute()) {
    counter_requests_->inc();
    if (quit) *quit = request.kind == RequestKind::kQuit;
    return local_reply(request);
  }
  // Head-of-trace decision (or adoption of the router's context); the
  // context rides the request into dispatch/execute so every stage can pin
  // its span. Unsampled requests carry an all-zero context and each stage
  // pays one branch.
  request.trace = request.trace.sampled ? tracer_.adopt(request.trace)
                                        : tracer_.start_trace();
  Response response = dispatch(request);
  if (request.trace.sampled && response.status == Response::Status::kOk) {
    // Close this tier's root span, then echo the context and the recorded
    // spans on the reply so the router can fold them into its trace. The
    // fields are appended after the cache write, so cached payloads stay
    // trace-free and later hits do not replay stale spans.
    tracer_.record_root(request.trace, line_start,
                        std::chrono::steady_clock::now());
    const auto spans = tracer_.collect_trace(request.trace.trace_id);
    response.add("trace", request.trace.wire());
    response.add("spans",
                 encode_reply_spans(spans, tracer_.to_us(line_start)));
  }
  const auto serialize_start = std::chrono::steady_clock::now();
  std::string reply = serialize_response(response);
  const auto line_end = std::chrono::steady_clock::now();
  hist_serialize_->record(line_end - serialize_start);
  if (request.trace.sampled)
    tracer_.record(request.trace, SpanName::kSerialize, serialize_start,
                   line_end);
  // Hit/miss-split end-to-end span: only successful requests, so
  // busy/error outcomes (tracked by counters) cannot skew the latency
  // story.
  if (response.status == Response::Status::kOk) {
    (response.cached ? hist_e2e_hit_ : hist_e2e_miss_)
        ->record(line_end - line_start);
  }
  return reply;
}

void Server::serve_pipe(std::istream& in, std::ostream& out) {
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    bool quit = false;
    out << handle_line(line, &quit) << '\n' << std::flush;
    if (quit) break;
  }
}

void Server::serve_loop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (stopping()) break;
      if (errno == EINTR) continue;
      break;  // listening socket gone
    }
    if (stopping()) {
      ::close(fd);
      break;
    }
    // Small request/response lines: Nagle coalescing only adds latency.
    set_tcp_nodelay(fd);
    reap_finished_sessions();
    std::lock_guard<std::mutex> lock(conns_mu_);
    Session& session = sessions_.emplace_back();
    session.fd = fd;
    session.thread = std::thread([this, fd, &session] {
      // LineReader bounds the per-session buffer: a peer that streams
      // bytes with no '\n' is answered with one protocol error and cut
      // off instead of growing the accumulator without limit.
      LineReader reader(fd);
      bool quit = false;
      while (!quit && !stopping()) {
        auto line = reader.read_line();
        if (!line) {
          if (reader.overflowed()) {
            counter_errors_->inc();
            std::string reply = serialize_response(
                Response::make_error("request line too long"));
            reply += '\n';
            send_all(fd, reply);
            // Drain before the close: unread flood bytes would raise
            // RST and discard the error reply client-side.
            shutdown_drain(fd, std::chrono::milliseconds(250));
          }
          break;
        }
        if (line->empty()) continue;
        std::string reply = handle_line(*line, &quit);
        reply += '\n';
        // MSG_NOSIGNAL via send_all: a client that closed mid-response
        // ends this session with EPIPE instead of killing the daemon
        // with SIGPIPE.
        if (!send_all(fd, reply)) break;
      }
      // Deregister before closing so stop() never shuts down a recycled
      // descriptor number, and mark the thread for the accept loop to
      // join. (Joins happen outside conns_mu_, so taking the lock here
      // cannot deadlock.)
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        session.fd = -1;
      }
      ::close(fd);
    });
  }
}

void Server::stop_sessions() {
  std::list<Session> sessions;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const Session& session : sessions_)
      if (session.fd >= 0) ::shutdown(session.fd, SHUT_RDWR);
    sessions.swap(sessions_);
  }
  for (Session& session : sessions)
    if (session.thread.joinable()) session.thread.join();
  pool_.shutdown(true);
}

void Server::reap_finished_sessions() {
  // A session thread's stack and guard mappings stay reserved until it is
  // joined, so a daemon that joined only at stop() would exhaust
  // vm.max_map_count after ~32k connections (an hour of health probes).
  std::list<Session> finished;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      const auto next = std::next(it);
      if (it->fd < 0) finished.splice(finished.end(), sessions_, it);
      it = next;
    }
  }
  for (Session& session : finished) session.thread.join();
}

}  // namespace tecfan::service
