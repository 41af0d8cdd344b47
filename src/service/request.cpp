#include "service/request.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/error.h"
#include "util/metrics.h"

namespace tecfan::service {
namespace {

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool needs_quoting(std::string_view v) {
  if (v.empty()) return true;
  return v.find_first_of(" \t\"\\") != std::string_view::npos;
}

void append_quoted(std::string& out, std::string_view v) {
  out += '"';
  for (char c : v) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

void append_value(std::string& out, std::string_view v) {
  if (needs_quoting(v)) {
    append_quoted(out, v);
  } else {
    out += v;
  }
}

/// Split a line into bare tokens and key=value pairs, honouring quotes.
/// Returns false (with `error` set) on unterminated quotes.
struct Token {
  std::string key;    // empty for a bare token
  std::string value;  // the bare token itself, or the value
};

bool tokenize(std::string_view line, std::vector<Token>& out,
              std::string& error) {
  std::size_t i = 0;
  const std::size_t n = line.size();
  while (i < n) {
    while (i < n && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    if (i >= n) break;
    std::string word;
    std::string key;
    bool in_quotes = false;
    for (; i < n; ++i) {
      const char c = line[i];
      if (in_quotes) {
        if (c == '\\' && i + 1 < n) {
          word += line[++i];
        } else if (c == '"') {
          in_quotes = false;
        } else {
          word += c;
        }
      } else if (c == '"') {
        in_quotes = true;
      } else if (c == '=' && key.empty() && !word.empty()) {
        key = word;
        word.clear();
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        break;
      } else {
        word += c;
      }
    }
    if (in_quotes) {
      error = "unterminated quote";
      return false;
    }
    out.push_back({key, word});
  }
  return true;
}

bool parse_int(const std::string& value, int& out) {
  const char* first = value.data();
  const char* last = value.data() + value.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc() && ptr == last;
}

// Locale-independent: std::stod honours LC_NUMERIC, so under e.g. a German
// locale "0.5" stops parsing at the '.' and deadline_ms misparses. The
// from_chars FP overload always uses the C locale's decimal point.
bool parse_double(const std::string& value, double& out) {
  const char* first = value.data();
  const char* last = value.data() + value.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc() && ptr == last;
}

bool parse_bool(const std::string& value, bool& out) {
  const std::string v = to_lower(value);
  if (v == "on" || v == "true" || v == "1") {
    out = true;
    return true;
  }
  if (v == "off" || v == "false" || v == "0") {
    out = false;
    return true;
  }
  return false;
}

std::optional<RequestKind> kind_from_name(std::string_view name) {
  const std::string n = to_lower(name);
  if (n == "ping") return RequestKind::kPing;
  if (n == "stats") return RequestKind::kStats;
  if (n == "metrics") return RequestKind::kMetrics;
  if (n == "quit") return RequestKind::kQuit;
  if (n == "trace") return RequestKind::kTrace;
  if (n == "equilibrium") return RequestKind::kEquilibrium;
  if (n == "run") return RequestKind::kRun;
  if (n == "sweep") return RequestKind::kSweep;
  if (n == "table1") return RequestKind::kTable1;
  return std::nullopt;
}

bool key_allowed(RequestKind kind, const std::string& key) {
  if (key == "deadline_ms") return true;
  switch (kind) {
    case RequestKind::kPing:
    case RequestKind::kStats:
    case RequestKind::kMetrics:
    case RequestKind::kQuit:
      return false;
    case RequestKind::kTrace:
      return key == "limit";
    case RequestKind::kEquilibrium:
      return key == "workload" || key == "threads" || key == "fan" ||
             key == "dvfs" || key == "tec" || key == "trace";
    case RequestKind::kRun:
      return key == "policy" || key == "workload" || key == "threads" ||
             key == "fan" || key == "trace";
    case RequestKind::kSweep:
      return key == "policy" || key == "workload" || key == "threads" ||
             key == "trace";
    case RequestKind::kTable1:
      return key == "workload" || key == "threads" || key == "trace";
  }
  return false;
}

std::string format_double_value(double v) {
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

}  // namespace

std::string_view kind_name(RequestKind kind) {
  switch (kind) {
    case RequestKind::kPing:
      return "ping";
    case RequestKind::kStats:
      return "stats";
    case RequestKind::kMetrics:
      return "metrics";
    case RequestKind::kQuit:
      return "quit";
    case RequestKind::kTrace:
      return "trace";
    case RequestKind::kEquilibrium:
      return "equilibrium";
    case RequestKind::kRun:
      return "run";
    case RequestKind::kSweep:
      return "sweep";
    case RequestKind::kTable1:
      return "table1";
  }
  return "?";
}

ParsedRequest parse_request(std::string_view line) {
  std::vector<Token> tokens;
  std::string error;
  if (!tokenize(line, tokens, error)) return ParsedRequest::failure(error);
  if (tokens.empty()) return ParsedRequest::failure("empty request");
  if (!tokens.front().key.empty())
    return ParsedRequest::failure("request must start with a kind, got '" +
                                  tokens.front().key + "=...'");

  const auto kind = kind_from_name(tokens.front().value);
  if (!kind)
    return ParsedRequest::failure("unknown request kind '" +
                                  tokens.front().value + "'");

  Request req;
  req.kind = *kind;
  for (std::size_t t = 1; t < tokens.size(); ++t) {
    const auto& tok = tokens[t];
    if (tok.key.empty()) {
      // `metrics prom` selects the Prometheus exposition format; it is
      // the only bare token any kind accepts.
      if (req.kind == RequestKind::kMetrics && to_lower(tok.value) == "prom") {
        req.format = "prom";
        continue;
      }
      return ParsedRequest::failure("stray token '" + tok.value +
                                    "' (expected key=value)");
    }
    const std::string key = to_lower(tok.key);
    if (!key_allowed(req.kind, key))
      return ParsedRequest::failure(
          "key '" + key + "' not valid for kind '" +
          std::string(kind_name(req.kind)) + "'");
    if (key == "workload") {
      req.workload = to_lower(tok.value);
      if (req.workload.empty())
        return ParsedRequest::failure("workload must be non-empty");
    } else if (key == "policy") {
      req.policy = to_lower(tok.value);
      if (req.policy.empty())
        return ParsedRequest::failure("policy must be non-empty");
    } else if (key == "threads") {
      if (!parse_int(tok.value, req.threads) || req.threads <= 0)
        return ParsedRequest::failure("bad threads '" + tok.value +
                                      "' (want a positive integer)");
    } else if (key == "fan") {
      if (!parse_int(tok.value, req.fan) || req.fan < 0)
        return ParsedRequest::failure("bad fan level '" + tok.value +
                                      "' (want a non-negative integer)");
    } else if (key == "dvfs") {
      if (!parse_int(tok.value, req.dvfs) || req.dvfs < 0)
        return ParsedRequest::failure("bad dvfs level '" + tok.value +
                                      "' (want a non-negative integer)");
    } else if (key == "tec") {
      if (!parse_bool(tok.value, req.tec_on))
        return ParsedRequest::failure("bad tec value '" + tok.value +
                                      "' (want on|off)");
    } else if (key == "deadline_ms") {
      if (!parse_double(tok.value, req.deadline_ms) || req.deadline_ms < 0)
        return ParsedRequest::failure("bad deadline_ms '" + tok.value + "'");
    } else if (key == "trace") {
      const auto ctx = TraceContext::from_wire(tok.value);
      if (!ctx)
        return ParsedRequest::failure("bad trace context '" + tok.value +
                                      "' (want <id hex>-<parent hex>)");
      req.trace = *ctx;
    } else if (key == "limit") {
      if (!parse_int(tok.value, req.trace_limit) || req.trace_limit <= 0)
        return ParsedRequest::failure("bad limit '" + tok.value +
                                      "' (want a positive integer)");
    }
  }
  return ParsedRequest::success(std::move(req));
}

std::string canonical_key(const Request& request) {
  std::string key{kind_name(request.kind)};
  auto field = [&key](std::string_view k, std::string_view v) {
    key += ' ';
    key += k;
    key += '=';
    append_value(key, v);
  };
  switch (request.kind) {
    case RequestKind::kPing:
    case RequestKind::kStats:
    case RequestKind::kMetrics:
    case RequestKind::kQuit:
    case RequestKind::kTrace:
      break;
    case RequestKind::kEquilibrium:
      field("dvfs", std::to_string(request.dvfs));
      field("fan", std::to_string(request.fan));
      field("tec", request.tec_on ? "on" : "off");
      field("threads", std::to_string(request.threads));
      field("workload", to_lower(request.workload));
      break;
    case RequestKind::kRun:
      field("fan", std::to_string(request.fan));
      field("policy", to_lower(request.policy));
      field("threads", std::to_string(request.threads));
      field("workload", to_lower(request.workload));
      break;
    case RequestKind::kSweep:
      field("policy", to_lower(request.policy));
      field("threads", std::to_string(request.threads));
      field("workload", to_lower(request.workload));
      break;
    case RequestKind::kTable1:
      field("threads", std::to_string(request.threads));
      field("workload", to_lower(request.workload));
      break;
  }
  return key;
}

void Response::add(std::string key, double value) {
  add(std::move(key), format_double_value(value));
}

void Response::add(std::string key, std::uint64_t value) {
  add(std::move(key), std::to_string(value));
}

std::optional<std::string> Response::field(std::string_view key) const {
  for (const auto& [k, v] : fields)
    if (k == key) return v;
  return std::nullopt;
}

std::string serialize_response(const Response& response) {
  switch (response.status) {
    case Response::Status::kBusy:
      return "busy";
    case Response::Status::kError: {
      std::string line = "error msg=";
      append_quoted(line, response.error);
      return line;
    }
    case Response::Status::kOk:
      break;
  }
  std::string line = "ok";
  if (response.cached) line += " cached=1";
  for (const auto& [k, v] : response.fields) {
    line += ' ';
    line += k;
    line += '=';
    append_value(line, v);
  }
  return line;
}

Response parse_response(std::string_view line) {
  std::vector<Token> tokens;
  std::string error;
  if (!tokenize(line, tokens, error)) return Response::make_error(error);
  if (tokens.empty() || !tokens.front().key.empty())
    return Response::make_error("malformed response line");

  const std::string& head = tokens.front().value;
  if (head == "busy") return Response::make_busy();
  if (head == "error") {
    for (std::size_t t = 1; t < tokens.size(); ++t)
      if (tokens[t].key == "msg") return Response::make_error(tokens[t].value);
    return Response::make_error("unknown error");
  }
  if (head != "ok")
    return Response::make_error("unknown response status '" + head + "'");

  Response r;
  for (std::size_t t = 1; t < tokens.size(); ++t) {
    const auto& tok = tokens[t];
    if (tok.key.empty())
      return Response::make_error("stray token '" + tok.value +
                                  "' in response");
    if (tok.key == "cached") {
      r.cached = tok.value == "1";
    } else {
      r.add(tok.key, tok.value);
    }
  }
  return r;
}

Response metrics_to_response(const MetricsRegistry::Snapshot& snapshot) {
  Response r;
  char buf[32];
  const auto fmt = [&buf](double v) -> std::string {
    if (std::isinf(v)) return "inf";
    std::snprintf(buf, sizeof(buf), "%.4g", v);
    return buf;
  };
  for (const auto& [name, snap] : snapshot.histograms) {
    r.add(name + "_count", snap.count);
    r.add(name + "_p50_us", snap.percentile(50.0));
    r.add(name + "_p90_us", snap.percentile(90.0));
    r.add(name + "_p99_us", snap.percentile(99.0));
    r.add(name + "_p999_us", snap.percentile(99.9));
    r.add(name + "_mean_us", snap.mean_us());
    r.add(name + "_max_us", snap.max_us);
    // Non-empty buckets as `upper_bound_us:count` pairs — the full
    // distribution, not just the extracted percentiles.
    std::string buckets;
    for (std::size_t i = 0; i < LatencyHistogram::kBucketCount; ++i) {
      if (snap.buckets[i] == 0) continue;
      if (!buckets.empty()) buckets += ',';
      buckets += fmt(LatencyHistogram::bucket_upper_us(i));
      buckets += ':';
      buckets += std::to_string(snap.buckets[i]);
    }
    r.add(name + "_buckets", buckets);
  }
  for (const auto& [name, value] : snapshot.counters) r.add(name, value);
  for (const auto& [name, value] : snapshot.gauges) r.add(name, value);
  return r;
}

}  // namespace tecfan::service
