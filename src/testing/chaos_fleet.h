// A router + tecfand fleet wired for chaos: every backend optionally
// fronted by a ChaosProxy, plus a clean reference Server for oracle
// replies, plus a storm driver that pushes pipelined client load through
// the router and checks the invariants the chaos tests pin:
//
//   1. No client-visible protocol corruption — every reply line the
//      router delivers parses as `ok`/`error`/`busy`, whatever garbage
//      the proxies fed it.
//   2. Per-connection reply order — reply k on a client connection
//      answers that connection's k-th request. Checked by comparing each
//      `ok` reply against the reference server's reply for the matching
//      request line (the corpus lines are distinct, so any swap shows up
//      as a mismatch).
//   3. Counter conservation — at quiescence every backend reports
//      pool_submits == executed + failed + expired + rejected: no work
//      item is dropped or double-counted however its connection died.
//   4. No stuck requests — every request gets *some* reply before the
//      storm timeout, and the router's pending / backend_inflight leak
//      gauges return to zero afterwards (hedge losers and blackholed
//      FIFO entries were reclaimed).
//   5. Bounded memory — implied by 4 plus the LineReader line cap: no
//      per-connection buffer or FIFO survives quiescence.
//   6. Trace integrity (storms with router sampling on) — a sampled trace
//      id survives failover and hedging carrying only the winning
//      attempt's backend spans (at most one backend e2e root per trace),
//      and the span rings never leak slots: every tier's open-spans count
//      drains to zero at quiescence.
//
// StormReport::describe() prints the seed and per-class proxy injection
// counts, so a failing run is replayed by re-running with the seed it
// printed. Used by tests/chaos_test.cpp (fixed seeds, one fault class per
// test) and tools/chaos (longer randomized storms for bench.sh).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "service/server.h"
#include "testing/chaos_proxy.h"

namespace tecfan::testing {

/// ServerOptions matched to the cluster tests: tiny grid, fast computes,
/// a queue deep enough that pipelined storms don't trip `busy`.
service::ServerOptions chaos_server_options();

/// RouterOptions with fast health probing and bounded forwards, so
/// blackholed backends are reclaimed in test time (deadline 2 s, stall
/// watchdog 3 s). backend_ports is filled by the fleet.
cluster::RouterOptions chaos_router_options();

struct ChaosFleetOptions {
  std::size_t backends = 2;
  /// Front every backend with a ChaosProxy configured from `proxy`
  /// (target_port and seed are filled per backend; the per-backend seed
  /// mixes the proxy seed with the backend index).
  bool with_proxies = false;
  ChaosProxyOptions proxy;
  service::ServerOptions server = chaos_server_options();
  cluster::RouterOptions router = chaos_router_options();
};

class ChaosFleet {
 public:
  explicit ChaosFleet(ChaosFleetOptions options);
  ~ChaosFleet();

  ChaosFleet(const ChaosFleet&) = delete;
  ChaosFleet& operator=(const ChaosFleet&) = delete;

  std::uint16_t router_port() const { return router_port_; }
  /// Direct (proxy-bypassing) port of backend i — for stats queries.
  std::uint16_t backend_port(std::size_t i) const;
  std::size_t backend_count() const { return servers_.size(); }

  cluster::Router& router() { return *router_; }
  /// In-process handle on backend i — for tracer/leak-gauge queries that
  /// have no wire verb on the direct port.
  service::Server& backend(std::size_t i) { return *servers_[i].server; }
  /// nullptr when the fleet runs proxy-less.
  ChaosProxy* proxy(std::size_t i);
  /// Clean oracle: same ServerOptions as the fleet members, never bound,
  /// never proxied. Deterministic engines make its replies byte-identical
  /// to any backend's (modulo the cached= token).
  service::Server& reference() { return *reference_; }

  /// Stop router, proxies, and backends (destructor calls it).
  void stop();

 private:
  struct Backend {
    std::unique_ptr<service::Server> server;
    std::uint16_t port = 0;
  };

  ChaosFleetOptions options_;
  std::vector<Backend> servers_;
  std::vector<std::unique_ptr<ChaosProxy>> proxies_;
  std::unique_ptr<service::Server> reference_;
  std::unique_ptr<cluster::Router> router_;
  std::uint16_t router_port_ = 0;
  bool stopped_ = false;
};

struct StormOptions {
  std::uint64_t seed = 1;
  std::size_t clients = 4;
  std::size_t requests_per_client = 32;
  /// Request lines sent per burst before reading the burst's replies.
  std::size_t pipeline_depth = 8;
  /// Per-reply read deadline; a miss records the request as stuck.
  double read_timeout_s = 30.0;
  /// Destructive storms (corruption, disconnects, blackholes) may
  /// legitimately exhaust the failover chain and answer
  /// `error no backend available`; nondestructive storms must not.
  bool allow_errors = false;
};

struct StormReport {
  std::uint64_t seed = 0;
  std::size_t requests = 0;
  std::size_t ok = 0;
  std::size_t ok_cached = 0;
  std::size_t errors = 0;      // error/busy replies (protocol-clean)
  std::size_t malformed = 0;   // invariant 1 violations
  std::size_t mismatched = 0;  // invariant 2 violations
  std::size_t missing = 0;     // invariant 4 violations (no reply in time)
  std::uint64_t pending_after = 0;
  std::uint64_t inflight_after = 0;
  /// Traces reassembled at the router (sampling storms; 0 otherwise).
  std::size_t traces_completed = 0;
  /// Sum of open-span gauges across tiers at quiescence; nonzero means a
  /// ScopedSpan leaked its slot.
  std::int64_t open_spans_after = 0;
  /// Human-readable invariant violations; empty == storm passed.
  std::vector<std::string> violations;

  bool passed() const { return violations.empty(); }
  /// Multi-line summary, always including the seed for replay.
  std::string describe() const;
};

/// Drive one storm through the fleet's router and check all invariants.
/// Blocks until every client finishes and the router quiesces.
StormReport run_storm(ChaosFleet& fleet, const StormOptions& options);

/// The distinct compute lines storms draw from (same grid the cluster
/// tests use; n <= 42 keeps every line inside the valid fan x dvfs
/// ranges — beyond that the backends answer `error`).
std::vector<std::string> storm_corpus(std::size_t n);

}  // namespace tecfan::testing
