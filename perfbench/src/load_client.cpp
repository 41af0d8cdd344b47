// Closed-loop load client: one thread and one TCP connection per client.
//
// Connection c owns request lines c, c+C, c+2C, ... of the input, so no two
// connections ever send the same line and no hit or miss depends on timing.
// Each connection keeps `window` requests in flight: it reads the replies
// that have arrived and sends as many new requests in one write. With
// --once it sends its slice exactly once; otherwise it cycles over it
// until --seconds have passed. Latency is the time from the write that
// carried a request to the read that returned its reply line.
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <deque>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "instruments.h"
#include "json_out.h"
#include "service/framing.h"

namespace perfbench {
namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

/// The reply with the trace context and forwarded spans removed: a traced
/// reply must otherwise be byte-identical to an untraced one.
std::string strip_trace_fields(std::string reply) {
  for (const char* key : {" trace=", " spans="}) {
    const std::size_t pos = reply.find(key);
    if (pos == std::string::npos) continue;
    const std::size_t end = reply.find(' ', pos + 1);
    reply.erase(pos, end == std::string::npos ? std::string::npos : end - pos);
  }
  return reply;
}

struct ClientSpan {
  std::uint64_t trace_id = 0;
  double send_us = 0.0;  // since the run's start
  double latency_us = 0.0;
};

struct ConnResult {
  std::uint64_t sent = 0, ok = 0, busy = 0, errors = 0, missing = 0;
  std::vector<Samples> window_latency;  // ok replies' latencies per window
  std::uint64_t mismatches = 0;
  Samples latency;
  struct Reply {
    std::size_t index;
    double latency_us;
    std::string line;
  };
  std::vector<Reply> replies;
  std::vector<std::string> mismatch_examples;
  std::vector<ClientSpan> spans;
  std::string failure;
};

struct Config {
  std::uint16_t port = 0;
  std::size_t conns = 1;
  std::size_t window = 1;
  bool once = false;
  Clock::time_point start;
  Clock::time_point stop_sending;
  // A reply later than this counts as missing; the slowest miss takes
  // well under a second.
  double timeout_s = 60.0;
  bool keep_replies = false;
  std::uint64_t trace_base = 0;  // 0 = untraced
  double window_s = 0.0;         // > 0: also report per-window medians
};

void run_connection(const Config& cfg, std::size_t c,
                    const std::vector<std::string>& lines,
                    const std::vector<std::string>& expect, ConnResult& res) {
  std::vector<std::size_t> slice;
  for (std::size_t i = c; i < lines.size(); i += cfg.conns) slice.push_back(i);
  if (slice.empty()) return;
  const int fd = tecfan::service::connect_loopback(cfg.port);
  if (fd < 0) {
    res.failure = "connect failed";
    return;
  }
  tecfan::service::LineReader reader(fd);
  struct InFlight {
    std::size_t index;
    std::uint64_t trace_id;
    Clock::time_point sent_at;
  };
  std::deque<InFlight> inflight;
  std::size_t pos = 0;
  std::uint64_t seq = 0;
  std::string batch;
  std::size_t batch_from = 0;

  const auto can_send = [&] {
    return cfg.once ? pos < slice.size() : Clock::now() < cfg.stop_sending;
  };
  const auto fill = [&] {
    batch.clear();
    batch_from = inflight.size();
    while (inflight.size() < cfg.window && can_send()) {
      const std::size_t index = slice[pos++ % slice.size()];
      batch += lines[index];
      std::uint64_t trace_id = 0;
      if (cfg.trace_base != 0) {
        trace_id = cfg.trace_base + (static_cast<std::uint64_t>(c) << 40) +
                   ++seq;
        char buf[48];
        std::snprintf(buf, sizeof(buf), " trace=%" PRIx64 "-1", trace_id);
        batch += buf;
      }
      batch += '\n';
      inflight.push_back({index, trace_id, {}});
    }
    if (batch.empty()) return true;
    const auto now = Clock::now();
    for (std::size_t i = batch_from; i < inflight.size(); ++i)
      inflight[i].sent_at = now;
    res.sent += inflight.size() - batch_from;
    return tecfan::service::send_all(fd, batch);
  };
  const auto settle = [&](std::string reply, Clock::time_point at) {
    const InFlight req = inflight.front();
    inflight.pop_front();
    if (reply.rfind("ok", 0) == 0) {
      ++res.ok;
      const double latency = us_between(req.sent_at, at);
      res.latency.add(latency);
      if (cfg.window_s > 0 && at < cfg.stop_sending) {
        const auto w = static_cast<std::size_t>(
            us_between(cfg.start, at) * 1e-6 / cfg.window_s);
        if (w >= res.window_latency.size()) res.window_latency.resize(w + 1);
        res.window_latency[w].add(latency);
      }
    } else if (reply.rfind("busy", 0) == 0) {
      ++res.busy;
    } else {
      ++res.errors;
    }
    if (req.trace_id != 0)
      res.spans.push_back({req.trace_id, us_between(cfg.start, req.sent_at),
                           us_between(req.sent_at, at)});
    // Any tier may trace a request (--trace-every); the trace fields are
    // never part of the result.
    reply = strip_trace_fields(std::move(reply));
    if (!expect.empty() && reply != expect[req.index]) {
      ++res.mismatches;
      if (res.mismatch_examples.size() < 3)
        res.mismatch_examples.push_back(lines[req.index] + " -> " + reply +
                                        " (expected " + expect[req.index] +
                                        ")");
    }
    if (cfg.keep_replies)
      res.replies.push_back(
          {req.index, us_between(req.sent_at, at), std::move(reply)});
  };

  if (!fill()) res.failure = "send failed";
  while (res.failure.empty() && !inflight.empty()) {
    const auto deadline =
        Clock::now() + std::chrono::microseconds(
                           static_cast<std::int64_t>(cfg.timeout_s * 1e6));
    auto line = reader.read_line(deadline);
    if (!line) break;
    settle(std::move(*line), Clock::now());
    while (reader.has_line()) {
      auto more = reader.pop_line();
      settle(std::move(*more), Clock::now());
    }
    if (!fill()) res.failure = "send failed";
  }
  res.missing += inflight.size();
  if (cfg.once) res.missing += slice.size() - std::min(pos, slice.size());
  ::close(fd);
}

}  // namespace

int run_load(const Args& args) {
  Config cfg;
  cfg.port = static_cast<std::uint16_t>(args.integer("port", 0));
  cfg.conns = static_cast<std::size_t>(args.integer("conns", 1));
  cfg.window = static_cast<std::size_t>(args.integer("window", 1));
  cfg.once = args.flag("once");
  cfg.keep_replies = args.has("replies");
  cfg.window_s = args.real("window-s", 0.0);
  cfg.trace_base = std::strtoull(args.str("trace-base", "0").c_str(),
                                 nullptr, 16);
  const std::vector<std::string> lines = read_lines(args.str("lines"));
  const std::vector<std::string> expect =
      args.has("expect") ? read_lines(args.str("expect"))
                         : std::vector<std::string>{};
  if (!expect.empty() && expect.size() != lines.size())
    throw std::runtime_error("--expect must have one reply per request line");
  if (cfg.port == 0 || cfg.conns == 0 || cfg.window == 0 || lines.empty())
    throw std::runtime_error("need --port, --lines, --conns >= 1, --window >= 1");

  std::vector<ConnResult> results(cfg.conns);
  cfg.start = Clock::now();
  cfg.stop_sending =
      cfg.start + std::chrono::microseconds(static_cast<std::int64_t>(
                      args.real("seconds", 1.0) * 1e6));
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < cfg.conns; ++c)
      threads.emplace_back([&, c] {
        try {
          run_connection(cfg, c, lines, expect, results[c]);
        } catch (const std::exception& e) {
          results[c].failure = e.what();
        }
      });
    for (auto& t : threads) t.join();
  }
  const double wall_s = us_between(cfg.start, Clock::now()) * 1e-6;

  ConnResult total;
  for (ConnResult& r : results) {
    total.sent += r.sent;
    total.ok += r.ok;
    total.busy += r.busy;
    total.errors += r.errors;
    total.missing += r.missing;
    total.mismatches += r.mismatches;
    total.latency.merge(r.latency);
    if (r.window_latency.size() > total.window_latency.size())
      total.window_latency.resize(r.window_latency.size());
    for (std::size_t w = 0; w < r.window_latency.size(); ++w)
      total.window_latency[w].merge(r.window_latency[w]);
    for (auto& m : r.mismatch_examples) total.mismatch_examples.push_back(m);
    if (!r.failure.empty()) total.failure = r.failure;
  }

  if (cfg.keep_replies) {
    std::ofstream out(args.str("replies"));
    for (const ConnResult& r : results)
      for (const auto& reply : r.replies)
        out << reply.index << '\t' << reply.latency_us << '\t' << reply.line
            << '\n';
  }
  if (args.has("spans")) {
    std::ofstream out(args.str("spans"));
    for (const ConnResult& r : results)
      for (const ClientSpan& s : r.spans)
        out << std::hex << s.trace_id << std::dec << '\t' << s.send_us << '\t'
            << s.latency_us << '\n';
  }

  std::string examples = "[";
  for (std::size_t i = 0; i < total.mismatch_examples.size(); ++i)
    examples += (i ? "," : "") + quote(total.mismatch_examples[i]);
  examples += "]";
  // Medians over the whole windows of the sending phase: a stall that
  // lands in a few windows moves them, not the typical window.
  Samples window_rps, window_p50, window_p99;
  const auto whole_windows = static_cast<std::size_t>(
      cfg.window_s > 0 ? args.real("seconds", 1.0) / cfg.window_s : 0);
  for (std::size_t w = 0;
       w < std::min(whole_windows, total.window_latency.size()); ++w) {
    const Samples& lat = total.window_latency[w];
    window_rps.add(static_cast<double>(lat.count()) / cfg.window_s);
    window_p50.add(lat.percentile(50.0));
    window_p99.add(lat.percentile(99.0));
  }
  JsonObject out;
  // With --once every line was due, sent or not.
  out.integer("attempted", cfg.once ? lines.size() : total.sent)
      .integer("ok", total.ok)
      .integer("busy", total.busy)
      .integer("errors", total.errors)
      .integer("missing", total.missing)
      .integer("mismatches", total.mismatches)
      .num("wall_s", wall_s)
      .integer("latency_samples", total.latency.count())
      .num("p50_us", total.latency.percentile(50.0))
      .num("p99_us", total.latency.percentile(99.0))
      .str("failure", total.failure)
      .raw("mismatch_examples", examples)
      .integer("windows", window_rps.count())
      .num("window_rps", window_rps.median())
      .num("window_p50_us", window_p50.median())
      .num("window_p99_us", window_p99.median());
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace perfbench
