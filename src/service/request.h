// Line-oriented request/response protocol for the tecfand service layer.
//
// A request is one text line: the request kind followed by space-separated
// key=value parameters, e.g.
//
//   equilibrium workload=cholesky threads=16 fan=2 dvfs=1 tec=on
//   run policy=tecfan workload=lu threads=16 fan=3
//   sweep policy=fan+dvfs workload=fmm threads=16
//   table1 workload=water threads=4
//   ping | stats | metrics | quit
//
// A response is one line: `ok key=value ...`, `busy`, or
// `error msg="..."`. Values containing spaces are double-quoted with
// backslash escapes.
//
// Compute kinds (equilibrium/run/sweep/table1) are deterministic, so a
// request has a *canonical key*: defaults filled in, names lower-cased,
// fields emitted in a fixed order, per-call options (deadline_ms) excluded.
// The canonical key doubles as the result-cache key and as the canonical
// wire serialization (parsing it reproduces the request).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/metrics.h"
#include "util/trace.h"

namespace tecfan::service {

enum class RequestKind {
  kPing,
  kStats,
  kMetrics,
  kQuit,
  kTrace,
  kEquilibrium,
  kRun,
  kSweep,
  kTable1,
};

/// Name of a kind as it appears on the wire.
std::string_view kind_name(RequestKind kind);

struct Request {
  RequestKind kind = RequestKind::kPing;
  std::string workload = "cholesky";  // equilibrium/run/sweep/table1
  int threads = 16;                   // equilibrium/run/sweep/table1
  std::string policy = "tecfan";      // run/sweep
  int fan = 0;                        // equilibrium/run (fixed level)
  int dvfs = 0;                       // equilibrium (uniform level)
  bool tec_on = false;                // equilibrium (all devices)
  double deadline_ms = 0.0;           // any kind; 0 = no deadline
  int trace_limit = 16;               // trace verb: max traces returned
  std::string format;                 // metrics verb: "" (line) or "prom"
  /// Per-call trace context from an optional `trace=<id>-<parent>` field
  /// on compute kinds. Excluded from the canonical key (like
  /// deadline_ms): tracing never changes what is computed or cached.
  TraceContext trace;

  bool is_compute() const {
    return kind == RequestKind::kEquilibrium || kind == RequestKind::kRun ||
           kind == RequestKind::kSweep || kind == RequestKind::kTable1;
  }
};

/// Outcome of parsing one request line.
struct ParsedRequest {
  bool ok = false;
  Request request;
  std::string error;  // set when !ok

  static ParsedRequest success(Request r) { return {true, std::move(r), {}}; }
  static ParsedRequest failure(std::string msg) {
    return {false, {}, std::move(msg)};
  }
};

/// Parse one request line. Rejects unknown kinds, unknown keys for the
/// kind, malformed integers/booleans, and negative levels, with a
/// human-readable error message.
ParsedRequest parse_request(std::string_view line);

/// The canonical request line (fixed field order, defaults filled in,
/// lower-cased names, deadline excluded). Used as the cache key.
std::string canonical_key(const Request& request);

struct Response {
  enum class Status { kOk, kError, kBusy };

  Status status = Status::kOk;
  std::string error;  // when kError
  bool cached = false;
  /// Ordered result fields (insertion order is preserved on the wire).
  std::vector<std::pair<std::string, std::string>> fields;

  static Response make_error(std::string msg) {
    Response r;
    r.status = Status::kError;
    r.error = std::move(msg);
    return r;
  }
  static Response make_busy() {
    Response r;
    r.status = Status::kBusy;
    return r;
  }

  void add(std::string key, std::string value) {
    fields.emplace_back(std::move(key), std::move(value));
  }
  void add(std::string key, double value);
  void add(std::string key, std::uint64_t value);

  /// First value for `key`, if present.
  std::optional<std::string> field(std::string_view key) const;
};

/// One response line (no trailing newline).
std::string serialize_response(const Response& response);

/// Parse a response line produced by serialize_response (used by loadgen
/// and the tests; malformed lines come back as kError with a message).
Response parse_response(std::string_view line);

/// The `metrics` verb's wire form of a registry snapshot: per-histogram
/// count/p50/p90/p99/p999/mean/max plus the non-empty buckets as
/// `upper_us:count` pairs, then counters and gauges. Both daemons answer
/// the verb through the daemon shell, so fleet tooling parses one format.
Response metrics_to_response(const MetricsRegistry::Snapshot& snapshot);

}  // namespace tecfan::service
