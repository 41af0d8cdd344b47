#include "testing/chaos_fleet.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "service/framing.h"
#include "service/request.h"
#include "util/error.h"
#include "util/trace.h"

namespace tecfan::testing {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Erase one ` key=value` field (bare or quoted value) from a reply line.
void strip_field(std::string& line, const std::string& marker) {
  const auto pos = line.find(marker);
  if (pos == std::string::npos) return;
  std::size_t end = pos + marker.size();
  if (end < line.size() && line[end] == '"') {
    end = line.find('"', end + 1);
    end = end == std::string::npos ? line.size() : end + 1;
  } else {
    end = line.find(' ', end);
    if (end == std::string::npos) end = line.size();
  }
  line.erase(pos, end - pos);
}

/// Replies are byte-identical across fleet members except for the
/// `cached=1` marker, which depends on which backend's cache saw the key
/// first, and — in sampling storms — the `trace=`/`spans=` fields, whose
/// ids and durations are per-request; drop all three before comparing
/// against the (never-sampled) reference reply.
std::string strip_cached(std::string line) {
  const auto pos = line.find(" cached=1");
  if (pos != std::string::npos) line.erase(pos, 9);
  strip_field(line, " trace=");
  strip_field(line, " spans=");
  return line;
}

bool is_protocol_line(const std::string& line) {
  return line == "ok" || line.rfind("ok ", 0) == 0 || line == "busy" ||
         line.rfind("error ", 0) == 0;
}

std::optional<std::uint64_t> stat_field(const service::Response& r,
                                        const std::string& key) {
  const auto v = r.field(key);
  if (!v) return std::nullopt;
  return std::stoull(*v);
}

}  // namespace

service::ServerOptions chaos_server_options() {
  service::ServerOptions o;
  o.tiles_x = 2;
  o.tiles_y = 2;
  o.workers = 2;
  // Deep enough that clients * pipeline_depth (plus hedges) never trips
  // `busy` on a healthy fleet — storms assert zero errors in the
  // nondestructive classes.
  o.queue_capacity = 128;
  o.cache_capacity = 256;
  o.max_sim_time_s = 0.05;
  return o;
}

cluster::RouterOptions chaos_router_options() {
  cluster::RouterOptions o;
  o.health.interval_s = 0.05;
  o.health.ping_timeout_ms = 250.0;
  // Bound every forward so blackholed backends resolve in test time: the
  // deadline answers the client, deadline + grace reclaims the pipe.
  o.backend_deadline_ms = 2000.0;
  o.dial_timeout_ms = 250.0;
  o.pipe_stall_ms = 3000.0;
  o.stall_grace_ms = 250.0;
  return o;
}

ChaosFleet::ChaosFleet(ChaosFleetOptions options)
    : options_(std::move(options)) {
  TECFAN_REQUIRE(options_.backends >= 1, "ChaosFleet needs backends");
  servers_.reserve(options_.backends);
  for (std::size_t i = 0; i < options_.backends; ++i) {
    Backend b;
    b.server = std::make_unique<service::Server>(options_.server);
    b.port = b.server->start();
    servers_.push_back(std::move(b));
  }
  reference_ = std::make_unique<service::Server>(options_.server);

  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (options_.with_proxies) {
      ChaosProxyOptions po = options_.proxy;
      po.target_port = servers_[i].port;
      po.listen_port = 0;
      po.seed = splitmix64(options_.proxy.seed ^ (i + 1));
      proxies_.push_back(std::make_unique<ChaosProxy>(po));
      ports.push_back(proxies_.back()->port());
    } else {
      ports.push_back(servers_[i].port);
    }
  }

  cluster::RouterOptions ro = options_.router;
  ro.backend_ports = ports;
  router_ = std::make_unique<cluster::Router>(std::move(ro));
  router_port_ = router_->start();
}

ChaosFleet::~ChaosFleet() { stop(); }

void ChaosFleet::stop() {
  if (stopped_) return;
  stopped_ = true;
  router_->stop();
  for (auto& p : proxies_) p->stop();
  for (auto& b : servers_) b.server->stop();
}

std::uint16_t ChaosFleet::backend_port(std::size_t i) const {
  return servers_[i].port;
}

ChaosProxy* ChaosFleet::proxy(std::size_t i) {
  return i < proxies_.size() ? proxies_[i].get() : nullptr;
}

std::vector<std::string> storm_corpus(std::size_t n) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < n; ++i)
    lines.push_back("equilibrium workload=water threads=4 fan=" +
                    std::to_string(i % 7) + " dvfs=" + std::to_string(i / 7));
  return lines;
}

std::string StormReport::describe() const {
  std::ostringstream os;
  os << "storm seed=" << seed << " requests=" << requests << " ok=" << ok
     << " (cached=" << ok_cached << ") errors=" << errors
     << " malformed=" << malformed << " mismatched=" << mismatched
     << " missing=" << missing << " pending_after=" << pending_after
     << " inflight_after=" << inflight_after
     << " traces=" << traces_completed
     << " open_spans_after=" << open_spans_after;
  if (violations.empty()) {
    os << "\n  PASS";
  } else {
    for (const auto& v : violations)
      os << "\n  VIOLATION: " << v << " (replay with seed=" << seed << ")";
  }
  return os.str();
}

StormReport run_storm(ChaosFleet& fleet, const StormOptions& options) {
  StormReport report;
  report.seed = options.seed;

  // 42 = every fan x dvfs combination in range; more would cross into
  // lines the backends reject (dvfs > 5), polluting error-free storms.
  const auto corpus = storm_corpus(42);
  std::vector<std::string> expected;
  expected.reserve(corpus.size());
  for (const auto& line : corpus)
    expected.push_back(strip_cached(fleet.reference().handle_line(line)));

  std::mutex mu;  // guards report during the client phase
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < options.clients; ++c) {
    clients.emplace_back([&, c] {
      StormReport local;
      std::vector<std::string> local_violations;
      std::uint64_t rng = splitmix64(options.seed ^ (c + 1));
      const int fd = service::connect_loopback(fleet.router_port());
      if (fd < 0) {
        std::lock_guard<std::mutex> lock(mu);
        report.violations.push_back("client " + std::to_string(c) +
                                    " could not connect to the router");
        return;
      }
      service::LineReader reader(fd);
      std::size_t sent = 0;
      while (sent < options.requests_per_client) {
        const std::size_t burst =
            std::min(options.pipeline_depth,
                     options.requests_per_client - sent);
        std::vector<std::size_t> picks;
        std::string wire;
        for (std::size_t k = 0; k < burst; ++k) {
          rng = splitmix64(rng);
          picks.push_back(rng % corpus.size());
          wire += corpus[picks.back()] + "\n";
        }
        if (!service::send_all(fd, wire)) {
          local.missing += options.requests_per_client - sent;
          local_violations.push_back(
              "client " + std::to_string(c) + " send failed mid-storm");
          break;
        }
        sent += burst;
        bool dead = false;
        for (std::size_t k = 0; k < burst; ++k) {
          const auto read_start = Clock::now();
          const auto deadline =
              read_start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   options.read_timeout_s));
          const auto reply = reader.read_line(deadline);
          if (!reply) {
            const double waited =
                std::chrono::duration<double>(Clock::now() - read_start)
                    .count();
            local.missing += burst - k;
            local_violations.push_back(
                "client " + std::to_string(c) + " got no reply for '" +
                corpus[picks[k]] +
                (waited < options.read_timeout_s * 0.5
                     ? "' (connection closed after " +
                           std::to_string(waited) + "s)"
                     : "' (timed out after " + std::to_string(waited) +
                           "s)"));
            dead = true;
            break;
          }
          ++local.requests;
          if (!is_protocol_line(*reply)) {
            ++local.malformed;
            local_violations.push_back(
                "client " + std::to_string(c) +
                " received a non-protocol line: '" + reply->substr(0, 80) +
                "'");
            continue;
          }
          if (reply->rfind("ok", 0) == 0) {
            ++local.ok;
            if (reply->find(" cached=1") != std::string::npos)
              ++local.ok_cached;
            if (strip_cached(*reply) != expected[picks[k]]) {
              ++local.mismatched;
              local_violations.push_back(
                  "client " + std::to_string(c) + " reply for '" +
                  corpus[picks[k]] + "' does not match the reference (" +
                  "got '" + reply->substr(0, 80) + "')");
            }
          } else {
            ++local.errors;
            if (!options.allow_errors && local_violations.size() < 8)
              local_violations.push_back(
                  "client " + std::to_string(c) + " error reply for '" +
                  corpus[picks[k]] + "': '" + reply->substr(0, 120) + "'");
          }
        }
        if (dead) break;
      }
      ::close(fd);
      std::lock_guard<std::mutex> lock(mu);
      report.requests += local.requests;
      report.ok += local.ok;
      report.ok_cached += local.ok_cached;
      report.errors += local.errors;
      report.malformed += local.malformed;
      report.mismatched += local.mismatched;
      report.missing += local.missing;
      // Cap stored violations: a bad run can produce thousands.
      for (auto& v : local_violations) {
        if (report.violations.size() >= 32) break;
        report.violations.push_back(std::move(v));
      }
    });
  }
  for (auto& t : clients) t.join();

  if (!options.allow_errors && report.errors > 0)
    report.violations.push_back(
        std::to_string(report.errors) +
        " error/busy replies in a storm that allows none");

  // Invariant 4: the router's leak gauges must return to zero once the
  // clients are gone (hedge losers reclaimed, blackholed FIFOs failed
  // over by the stall watchdog).
  const auto quiesce_deadline = Clock::now() + std::chrono::seconds(15);
  cluster::Router::Stats rs;
  for (;;) {
    rs = fleet.router().stats();
    if ((rs.pending == 0 && rs.backend_inflight == 0) ||
        Clock::now() >= quiesce_deadline)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  report.pending_after = rs.pending;
  report.inflight_after = rs.backend_inflight;
  if (rs.pending != 0 || rs.backend_inflight != 0)
    report.violations.push_back(
        "router did not quiesce: pending=" + std::to_string(rs.pending) +
        " backend_inflight=" + std::to_string(rs.backend_inflight));

  // Invariant 6: trace integrity. Failover and hedging retry the same
  // wire line — same trace context — against replicas, but completion
  // erases the request, so only the winning attempt's backend spans may
  // land in the router's rings: more than one backend e2e root under a
  // single trace id means a loser's reply leaked through. And every
  // span opened anywhere must have been recorded (or dropped) by
  // quiescence — a nonzero open-spans count is a leaked ring slot.
  const Tracer& tracer = fleet.router().tracer();
  if (tracer.sampled_traces() > 0) {
    const auto traces = tracer.completed_traces(512);
    report.traces_completed = traces.size();
    for (const auto& t : traces) {
      std::size_t backend_roots = 0;
      for (const Span& s : t.spans) {
        if (s.trace_id != t.trace_id) {
          report.violations.push_back(
              "trace reassembly mixed ids: span of trace " +
              std::to_string(s.trace_id) + " filed under " +
              std::to_string(t.trace_id));
          break;
        }
        if (s.tier == TraceTier::kServer && s.name == SpanName::kE2e)
          ++backend_roots;
      }
      if (backend_roots > 1 && report.violations.size() < 32)
        report.violations.push_back(
            "trace " + std::to_string(t.trace_id) + " carries " +
            std::to_string(backend_roots) +
            " backend e2e roots (a losing attempt's spans leaked in)");
    }
  }
  // A backend may still be computing a forward whose pipe was cut after
  // the router failed it over and answered the client; that compute's
  // span closes when the compute finishes, so wait for the fleet to go
  // idle as invariant 3 does. A leaked span never closes.
  const auto spans_deadline = Clock::now() + std::chrono::seconds(10);
  std::int64_t open_spans;
  for (;;) {
    open_spans = tracer.open_spans();
    for (std::size_t b = 0; b < fleet.backend_count(); ++b)
      open_spans += fleet.backend(b).tracer().open_spans();
    if (open_spans == 0 || Clock::now() >= spans_deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  report.open_spans_after = open_spans;
  if (open_spans != 0)
    report.violations.push_back("span rings leaked " +
                                std::to_string(open_spans) +
                                " open spans past quiescence");

  // Invariant 3: per-backend worker-pool counter conservation, queried
  // over the wire on the direct (proxy-bypassing) port. Executed counts
  // land after the worker finishes, so poll briefly for the books to
  // balance.
  for (std::size_t b = 0; b < fleet.backend_count(); ++b) {
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    std::string last = "unreachable";
    bool conserved = false;
    while (!conserved && Clock::now() < deadline) {
      const int fd = service::connect_loopback(fleet.backend_port(b));
      if (fd < 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        continue;
      }
      service::LineReader reader(fd);
      if (service::send_all(fd, "stats\n")) {
        const auto line =
            reader.read_line(Clock::now() + std::chrono::seconds(5));
        if (line) {
          const auto r = service::parse_response(*line);
          const auto submits = stat_field(r, "pool_submits");
          const auto executed = stat_field(r, "pool_executed");
          const auto failed = stat_field(r, "pool_failed");
          const auto expired = stat_field(r, "pool_expired");
          const auto rejected = stat_field(r, "pool_rejected");
          if (submits && executed && failed && expired && rejected) {
            const std::uint64_t settled =
                *executed + *failed + *expired + *rejected;
            conserved = settled == *submits;
            last = "submits=" + std::to_string(*submits) +
                   " executed=" + std::to_string(*executed) +
                   " failed=" + std::to_string(*failed) +
                   " expired=" + std::to_string(*expired) +
                   " rejected=" + std::to_string(*rejected);
          } else {
            last = "stats reply missing pool counters";
          }
        }
      }
      ::close(fd);
      if (!conserved)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (!conserved)
      report.violations.push_back("backend " + std::to_string(b) +
                                  " counters not conserved: " + last);
  }

  return report;
}

}  // namespace tecfan::testing
