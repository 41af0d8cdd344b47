// Tests for the tecfand service layer: protocol parse/serialize, the
// sharded LRU result cache, worker-pool backpressure and shutdown, and an
// end-to-end pipe-mode session asserting a repeated equilibrium request is
// served from the cache without re-solving.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <clocale>
#include <condition_variable>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "daemon_lifecycle.h"
#include "util/metrics.h"
#include "util/rng.h"

#include "service/fault_injection.h"
#include "service/framing.h"
#include "service/request.h"
#include "service/result_cache.h"
#include "service/server.h"
#include "service/task_queue.h"
#include "service/worker_pool.h"

namespace {

using namespace tecfan::service;
using namespace std::chrono_literals;

// ---------------------------------------------------------------- protocol

TEST(Protocol, ParseFillsDefaults) {
  const ParsedRequest p = parse_request("equilibrium");
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.request.kind, RequestKind::kEquilibrium);
  EXPECT_EQ(p.request.workload, "cholesky");
  EXPECT_EQ(p.request.threads, 16);
  EXPECT_EQ(p.request.fan, 0);
  EXPECT_EQ(p.request.dvfs, 0);
  EXPECT_FALSE(p.request.tec_on);
  EXPECT_EQ(p.request.deadline_ms, 0.0);
}

TEST(Protocol, ParseReadsEveryField) {
  const ParsedRequest p = parse_request(
      "equilibrium workload=LU threads=4 fan=3 dvfs=2 tec=on deadline_ms=50");
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.request.workload, "lu");  // names are lower-cased
  EXPECT_EQ(p.request.threads, 4);
  EXPECT_EQ(p.request.fan, 3);
  EXPECT_EQ(p.request.dvfs, 2);
  EXPECT_TRUE(p.request.tec_on);
  EXPECT_DOUBLE_EQ(p.request.deadline_ms, 50.0);
}

TEST(Protocol, CanonicalKeyIsOrderAndCaseIndependent) {
  const ParsedRequest a =
      parse_request("equilibrium workload=cholesky fan=2 threads=16 tec=off");
  const ParsedRequest b =
      parse_request("EQUILIBRIUM tec=false THREADS=16 FAN=2 Workload=CHOLESKY");
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(canonical_key(a.request), canonical_key(b.request));
}

TEST(Protocol, CanonicalKeyExcludesDeadline) {
  ParsedRequest a = parse_request("run policy=tecfan workload=lu fan=1");
  ParsedRequest b =
      parse_request("run policy=tecfan workload=lu fan=1 deadline_ms=25");
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(canonical_key(a.request), canonical_key(b.request));
}

TEST(Protocol, TraceFieldParsesAndStaysOutOfTheKey) {
  const ParsedRequest with = parse_request(
      "equilibrium workload=water threads=4 fan=1 trace=deadbeef-1f");
  ASSERT_TRUE(with.ok) << with.error;
  EXPECT_TRUE(with.request.trace.sampled);
  EXPECT_EQ(with.request.trace.trace_id, 0xdeadbeefULL);
  EXPECT_EQ(with.request.trace.parent_span_id, 0x1fULL);
  const ParsedRequest without =
      parse_request("equilibrium workload=water threads=4 fan=1");
  ASSERT_TRUE(without.ok);
  EXPECT_FALSE(without.request.trace.sampled);
  // Trace context is per-request plumbing, not identity: the keys must
  // collide so a traced request can hit an entry cached untraced.
  EXPECT_EQ(canonical_key(with.request), canonical_key(without.request));
}

TEST(Protocol, MalformedTraceContextIsARequestError) {
  for (const char* line :
       {"equilibrium trace=", "equilibrium trace=12",
        "equilibrium trace=zz-1f", "equilibrium trace=12-",
        "equilibrium trace=0-1f"}) {
    const ParsedRequest p = parse_request(line);
    EXPECT_FALSE(p.ok) << line;
    if (!p.ok) {
      EXPECT_NE(p.error.find("bad trace"), std::string::npos) << line;
    }
  }
}

TEST(Protocol, TraceVerbParsesItsLimit) {
  const ParsedRequest p = parse_request("trace limit=3");
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.request.kind, RequestKind::kTrace);
  EXPECT_EQ(p.request.trace_limit, 3);
  EXPECT_FALSE(parse_request("trace limit=0").ok);
  EXPECT_FALSE(parse_request("trace limit=banana").ok);
}

TEST(Protocol, CanonicalKeyRoundTrips) {
  for (const char* line :
       {"equilibrium workload=fmm threads=16 fan=4 dvfs=1 tec=on",
        "run policy=fan+dvfs workload=volrend threads=16 fan=2",
        "sweep policy=tecfan workload=water threads=4",
        "table1 workload=cholesky threads=16"}) {
    const ParsedRequest p = parse_request(line);
    ASSERT_TRUE(p.ok) << line << ": " << p.error;
    const std::string key = canonical_key(p.request);
    const ParsedRequest again = parse_request(key);
    ASSERT_TRUE(again.ok) << key << ": " << again.error;
    EXPECT_EQ(canonical_key(again.request), key) << line;
  }
}

// Property test: for any valid compute request, the canonical key is a
// fixed point — parsing it reproduces the request, and canonicalizing the
// reparse reproduces the key byte-for-byte. Exercised over randomized
// requests including names that need the quoting path.
TEST(Protocol, CanonicalKeyRoundTripsOverRandomizedRequests) {
  tecfan::Rng rng(20260808);
  const RequestKind kinds[] = {RequestKind::kEquilibrium, RequestKind::kRun,
                               RequestKind::kSweep, RequestKind::kTable1};
  // Plain names plus ones whose canonical form must be quoted/escaped.
  const char* names[] = {"cholesky",    "LU",           "Water",
                         "two words",   "a\"quote",     "back\\slash",
                         " lead-space", "tab\there",    "fmm"};
  for (int trial = 0; trial < 500; ++trial) {
    Request r;
    r.kind = kinds[rng.below(4)];
    r.workload = names[rng.below(sizeof(names) / sizeof(names[0]))];
    r.policy = names[rng.below(sizeof(names) / sizeof(names[0]))];
    r.threads = 1 + static_cast<int>(rng.below(64));
    r.fan = static_cast<int>(rng.below(16));
    r.dvfs = static_cast<int>(rng.below(8));
    r.tec_on = rng.below(2) == 1;
    r.deadline_ms = 0.0;  // excluded from the key by contract

    const std::string key = canonical_key(r);
    const ParsedRequest back = parse_request(key);
    ASSERT_TRUE(back.ok) << "key not parseable: " << key << ": "
                         << back.error;
    EXPECT_EQ(back.request.kind, r.kind) << key;
    EXPECT_EQ(canonical_key(back.request), key) << "trial " << trial;
    // The key is canonical: the round-tripped request carries the
    // lower-cased names the key itself shows.
    EXPECT_EQ(back.request.workload,
              [&r] {
                std::string w = r.workload;
                for (auto& ch : w)
                  ch = static_cast<char>(
                      std::tolower(static_cast<unsigned char>(ch)));
                return w;
              }())
        << key;
  }
}

// Every kind rejects exactly the keys outside its schema; deadline_ms is
// the one cross-cutting key every kind accepts.
TEST(Protocol, EachKindRejectsForeignKeys) {
  const struct {
    const char* kind;
    std::vector<std::string> allowed;
  } kinds[] = {
      {"equilibrium", {"workload", "threads", "fan", "dvfs", "tec"}},
      {"run", {"policy", "workload", "threads", "fan"}},
      {"sweep", {"policy", "workload", "threads"}},
      {"table1", {"workload", "threads"}},
      {"ping", {}},
      {"stats", {}},
      {"metrics", {}},
      {"quit", {}},
  };
  const std::vector<std::pair<std::string, std::string>> all_keys = {
      {"workload", "lu"}, {"threads", "4"}, {"policy", "tecfan"},
      {"fan", "1"},       {"dvfs", "1"},    {"tec", "on"},
  };
  for (const auto& k : kinds) {
    for (const auto& [key, value] : all_keys) {
      const std::string line = std::string(k.kind) + " " + key + "=" + value;
      const bool allowed = std::find(k.allowed.begin(), k.allowed.end(),
                                     key) != k.allowed.end();
      const ParsedRequest p = parse_request(line);
      EXPECT_EQ(p.ok, allowed) << line << ": " << p.error;
      if (!allowed) {
        EXPECT_NE(p.error.find("not valid for kind"), std::string::npos)
            << line << ": " << p.error;
      }
    }
    const ParsedRequest with_deadline =
        parse_request(std::string(k.kind) + " deadline_ms=12.5");
    EXPECT_TRUE(with_deadline.ok) << k.kind << ": " << with_deadline.error;
  }
}

TEST(Protocol, RejectsMalformedInput) {
  for (const char* line : {
           "",                              // empty
           "   ",                           // whitespace only
           "bogus",                         // unknown kind
           "workload=lu",                   // key before kind
           "equilibrium fan=abc",           // non-integer level
           "equilibrium fan=-1",            // negative level
           "equilibrium fan=3x",            // trailing junk
           "equilibrium tec=maybe",         // bad boolean
           "equilibrium threads=0",         // non-positive threads
           "equilibrium workload=",         // empty value
           "equilibrium frobnicate=1",      // unknown key for kind
           "run dvfs=1",                    // key not valid for `run`
           "ping extra=1",                  // control kinds take no keys
           "run policy",                    // stray bare token
           "run policy=\"tec",              // unterminated quote
           "equilibrium deadline_ms=-5",    // negative deadline
       }) {
    const ParsedRequest p = parse_request(line);
    EXPECT_FALSE(p.ok) << "accepted: '" << line << "'";
    EXPECT_FALSE(p.error.empty()) << line;
  }
}

TEST(Protocol, MetricsKindParses) {
  const ParsedRequest p = parse_request("metrics");
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.request.kind, RequestKind::kMetrics);
  EXPECT_FALSE(p.request.is_compute());
  EXPECT_EQ(kind_name(RequestKind::kMetrics), "metrics");
  // Control kinds take no keys (deadline_ms stays allowed).
  EXPECT_FALSE(parse_request("metrics workload=lu").ok);
  EXPECT_TRUE(parse_request("metrics deadline_ms=5").ok);
}

// Regression: parse_double used locale-dependent std::stod, so under a
// comma-decimal LC_NUMERIC locale "deadline_ms=0.5" stopped parsing at
// the '.' and was rejected. from_chars is locale-independent.
TEST(Protocol, DeadlineParsingIsLocaleIndependent) {
  const char* current = std::setlocale(LC_NUMERIC, nullptr);
  const std::string saved = current ? current : "C";
  bool switched = false;
  for (const char* name : {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8",
                           "fr_FR.utf8", "de_DE", "fr_FR"}) {
    if (std::setlocale(LC_NUMERIC, name)) {
      switched = true;
      break;
    }
  }
  // The assertions hold with or without a comma-decimal locale installed;
  // with one, they are the actual regression.
  const ParsedRequest p = parse_request("equilibrium deadline_ms=0.5");
  EXPECT_TRUE(p.ok) << p.error << (switched ? " (comma-decimal locale)" : "");
  EXPECT_DOUBLE_EQ(p.request.deadline_ms, 0.5);
  EXPECT_FALSE(parse_request("equilibrium deadline_ms=0,5").ok);
  std::setlocale(LC_NUMERIC, saved.c_str());
}

TEST(Protocol, ResponseRoundTrips) {
  Response r;
  r.add("peak_t_c", 89.25);
  r.add("note", std::string("two words"));
  r.add("tricky", std::string("a \"quoted\" \\ value"));
  const Response back = parse_response(serialize_response(r));
  EXPECT_EQ(back.status, Response::Status::kOk);
  EXPECT_EQ(back.field("peak_t_c"), std::optional<std::string>("89.25"));
  EXPECT_EQ(back.field("note"), std::optional<std::string>("two words"));
  EXPECT_EQ(back.field("tricky"),
            std::optional<std::string>("a \"quoted\" \\ value"));

  const Response cached_back = [] {
    Response c;
    c.cached = true;
    c.add("x", std::uint64_t{7});
    return parse_response(serialize_response(c));
  }();
  EXPECT_TRUE(cached_back.cached);

  const Response err = parse_response(
      serialize_response(Response::make_error("fan level out of range")));
  EXPECT_EQ(err.status, Response::Status::kError);
  EXPECT_EQ(err.error, "fan level out of range");

  EXPECT_EQ(parse_response("busy").status, Response::Status::kBusy);
  EXPECT_EQ(parse_response("???").status, Response::Status::kError);
}

// ------------------------------------------------------------------ cache

TEST(ResultCache, HitMissAndCounters) {
  ResultCache cache(8, 2);
  EXPECT_FALSE(cache.get("a"));
  cache.put("a", "1");
  auto hit = cache.get("a");
  ASSERT_TRUE(hit);
  EXPECT_EQ(*hit, "1");
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.size, 1u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

TEST(ResultCache, EvictsLeastRecentlyUsed) {
  ResultCache cache(2, 1);  // single shard, two entries
  cache.put("a", "1");
  cache.put("b", "2");
  ASSERT_TRUE(cache.get("a"));  // refresh `a`; `b` is now LRU
  cache.put("c", "3");          // evicts `b`
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.get("b"));
  EXPECT_TRUE(cache.get("a"));
  EXPECT_TRUE(cache.get("c"));
}

TEST(ResultCache, OverwriteDoesNotEvict) {
  ResultCache cache(2, 1);
  cache.put("a", "1");
  cache.put("b", "2");
  cache.put("a", "updated");
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(*cache.get("a"), "updated");
  EXPECT_TRUE(cache.get("b"));
}

TEST(ResultCache, CanonicalizedRequestsShareAnEntry) {
  ResultCache cache(16);
  const ParsedRequest a =
      parse_request("equilibrium fan=1 workload=lu threads=16");
  const ParsedRequest b =
      parse_request("equilibrium threads=16 workload=LU fan=1 deadline_ms=9");
  ASSERT_TRUE(a.ok && b.ok);
  cache.put(canonical_key(a.request), "result");
  auto hit = cache.get(canonical_key(b.request));
  ASSERT_TRUE(hit);
  EXPECT_EQ(*hit, "result");
}

// Regression: stats().capacity reported per_shard_capacity * shards, so
// 1000 entries over 16 shards (ceil -> 63 each) read back as 1008.
TEST(ResultCache, ReportsRequestedCapacityDespiteShardRounding) {
  EXPECT_EQ(ResultCache(1000, 16).stats().capacity, 1000u);
  EXPECT_EQ(ResultCache(10, 4).stats().capacity, 10u);
  EXPECT_EQ(ResultCache(3, 8).stats().capacity, 3u);  // shards clamp to 3
  EXPECT_EQ(ResultCache(4096, 8).stats().capacity, 4096u);
}

TEST(ResultCache, ClearEmptiesEveryShard) {
  ResultCache cache(64, 4);
  for (int i = 0; i < 32; ++i)
    cache.put("key" + std::to_string(i), "v");
  EXPECT_GT(cache.stats().size, 0u);
  cache.clear();
  EXPECT_EQ(cache.stats().size, 0u);
}

// ------------------------------------------------------------- queue/pool

TEST(TaskQueue, BoundedAndClosable) {
  TaskQueue q(2);
  Task t;
  t.run = [] {};
  EXPECT_TRUE(q.try_push(t));
  EXPECT_TRUE(q.try_push(t));
  EXPECT_FALSE(q.try_push(t));  // full
  EXPECT_EQ(q.size(), 2u);
  q.close();
  EXPECT_FALSE(q.try_push(t));  // closed
  EXPECT_TRUE(q.pop());         // drains the backlog first...
  EXPECT_TRUE(q.pop());
  EXPECT_FALSE(q.pop());  // ...then reports closed-and-empty
}

// A simple open/close gate for holding a worker in-flight.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  bool entered = false;

  void wait_open() {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [this] { return open; });
  }
  void wait_entered() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return entered; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
    cv.notify_all();
  }
};

TEST(WorkerPool, BackpressureRejectsWhenSaturated) {
  WorkerPool pool(1, 2);
  Gate gate;
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.submit([&] {
    gate.wait_open();
    ++ran;
  }));
  gate.wait_entered();  // worker is busy; queue is empty
  ASSERT_TRUE(pool.submit([&] { ++ran; }));
  ASSERT_TRUE(pool.submit([&] { ++ran; }));
  EXPECT_FALSE(pool.submit([&] { ++ran; }));  // queue full -> busy
  EXPECT_FALSE(pool.submit([&] { ++ran; }));
  EXPECT_EQ(pool.stats().rejected, 2u);
  gate.release();
  pool.shutdown(true);
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(pool.stats().executed, 3u);
}

TEST(WorkerPool, GracefulShutdownDrainsAcceptedWork) {
  std::atomic<int> ran{0};
  {
    WorkerPool pool(2, 16);
    for (int i = 0; i < 8; ++i)
      ASSERT_TRUE(pool.submit([&] {
        std::this_thread::sleep_for(1ms);
        ++ran;
      }));
    pool.shutdown(true);
    EXPECT_EQ(pool.stats().executed, 8u);
  }
  EXPECT_EQ(ran.load(), 8);
}

TEST(WorkerPool, DropShutdownCancelsBacklog) {
  WorkerPool pool(1, 8);
  Gate gate;
  std::atomic<int> ran{0};
  std::atomic<int> cancelled{0};
  ASSERT_TRUE(pool.submit([&] { gate.wait_open(); }));
  gate.wait_entered();
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(pool.submit([&] { ++ran; }, [&] { ++cancelled; }));
  EXPECT_EQ(pool.stats().queued, 4u);

  std::thread stopper([&] { pool.shutdown(false); });
  // The backlog is cancelled synchronously inside shutdown, before the
  // join; the in-flight task is still held at the gate.
  while (pool.stats().expired < 4u) std::this_thread::sleep_for(1ms);
  EXPECT_EQ(cancelled.load(), 4);
  EXPECT_EQ(ran.load(), 0);
  gate.release();
  stopper.join();
}

TEST(WorkerPool, ExpiredDeadlineRunsExpireContinuation) {
  WorkerPool pool(1, 4);
  std::atomic<int> ran{0};
  std::atomic<int> expired{0};
  ASSERT_TRUE(pool.submit([&] { ++ran; }, [&] { ++expired; },
                          std::chrono::steady_clock::now() - 1ms));
  pool.shutdown(true);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(expired.load(), 1);
  EXPECT_EQ(pool.stats().expired, 1u);
}

// Regression: worker_loop incremented `executed` even when run() threw,
// so a crashing task was indistinguishable from a served one.
TEST(WorkerPool, ThrowingTasksCountAsFailedNotExecuted) {
  WorkerPool pool(1, 8);
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.submit([&] { ++ran; }));
  ASSERT_TRUE(pool.submit([] { throw std::runtime_error("task boom"); }));
  ASSERT_TRUE(pool.submit([] { throw 42; }));  // non-std exception path
  ASSERT_TRUE(pool.submit([&] { ++ran; }));
  pool.shutdown(true);
  EXPECT_EQ(ran.load(), 2);
  const auto s = pool.stats();
  EXPECT_EQ(s.executed, 2u);
  EXPECT_EQ(s.failed, 2u);
  EXPECT_EQ(s.expired, 0u);
  EXPECT_EQ(s.rejected, 0u);
}

TEST(WorkerPool, RecordsQueueWaitIntoHistogram) {
  tecfan::LatencyHistogram queue_wait;
  {
    WorkerPool pool(2, 16, &queue_wait);
    std::atomic<int> ran{0};
    for (int i = 0; i < 6; ++i)
      ASSERT_TRUE(pool.submit([&] { ++ran; }));
    pool.shutdown(true);
    EXPECT_EQ(ran.load(), 6);
  }
  // Every dequeued task contributes one sample, expired ones included.
  const auto snap = queue_wait.snapshot();
  EXPECT_EQ(snap.count, 6u);
  EXPECT_GE(snap.max_us, 0.0);
}

// Conservation law: every submit() ends in exactly one of executed /
// failed / expired / rejected — including submits racing a drop shutdown
// (the queue is closed before the backlog sweep, so a late push is
// rejected rather than silently run). Runs under TSan in the tier-1 leg.
TEST(WorkerPool, CountersConserveEverySubmitUnderDropShutdown) {
  for (int round = 0; round < 3; ++round) {
    WorkerPool pool(3, 8);
    std::atomic<std::uint64_t> submits{0};
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 300;
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&pool, &submits, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          auto deadline = std::chrono::steady_clock::time_point::max();
          if (i % 11 == 0)
            deadline = std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(1);  // expires in queue
          const bool throws = (p + i) % 149 == 0;
          pool.submit(
              [throws] {
                if (throws) throw std::runtime_error("conservation boom");
              },
              [] {}, deadline);
          submits.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    // Drop-shutdown races the producers on every round.
    std::thread dropper([&pool] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      pool.shutdown(false);
    });
    for (auto& t : producers) t.join();
    dropper.join();
    const auto s = pool.stats();
    EXPECT_EQ(s.executed + s.failed + s.expired + s.rejected, submits.load())
        << "executed=" << s.executed << " failed=" << s.failed
        << " expired=" << s.expired << " rejected=" << s.rejected;
    EXPECT_EQ(s.queued, 0u);
  }
}

// Regression for the drop-shutdown race: shutdown(false) must close the
// queue before cancelling the backlog, so once any expiry has been
// observed no further submit can be accepted (it would have run after
// the cancellation sweep under the old drain-then-close order).
TEST(WorkerPool, DropShutdownClosesQueueBeforeCancelling) {
  WorkerPool pool(1, 8);
  Gate gate;
  std::atomic<int> cancelled{0};
  ASSERT_TRUE(pool.submit([&] { gate.wait_open(); }));
  gate.wait_entered();
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(pool.submit([] {}, [&] { ++cancelled; }));

  std::thread stopper([&] { pool.shutdown(false); });
  while (pool.stats().expired < 3u) std::this_thread::sleep_for(1ms);
  EXPECT_EQ(cancelled.load(), 3);
  // The backlog has been cancelled, so the queue must already be closed.
  EXPECT_FALSE(pool.submit([] {}));
  EXPECT_EQ(pool.stats().rejected, 1u);
  gate.release();
  stopper.join();
}

TEST(WorkerPool, ManyProducersOneConsumerStaysConsistent) {
  WorkerPool pool(2, 64);
  std::atomic<int> ran{0};
  std::atomic<int> accepted{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p)
    producers.emplace_back([&] {
      for (int i = 0; i < 64; ++i)
        if (pool.submit([&] { ++ran; })) ++accepted;
    });
  for (auto& t : producers) t.join();
  pool.shutdown(true);
  EXPECT_EQ(ran.load(), accepted.load());
  const auto s = pool.stats();
  EXPECT_EQ(s.executed, static_cast<std::uint64_t>(accepted.load()));
  EXPECT_EQ(s.executed + s.rejected, 256u);
}

// ------------------------------------------------------------- end-to-end

ServerOptions small_server_options() {
  ServerOptions o;
  o.tiles_x = 2;
  o.tiles_y = 2;
  o.workers = 2;
  o.queue_capacity = 8;
  o.cache_capacity = 64;
  o.max_sim_time_s = 0.05;
  return o;
}

TEST(ServerPipe, CachedEquilibriumIsServedWithoutResolving) {
  Server server(small_server_options());
  std::istringstream in(
      "equilibrium workload=water threads=4 fan=1\n"
      "equilibrium threads=4 fan=1 workload=WATER\n"
      "stats\n"
      "quit\n");
  std::ostringstream out;
  server.serve_pipe(in, out);

  std::istringstream lines(out.str());
  std::string l1, l2, l3, l4;
  ASSERT_TRUE(std::getline(lines, l1));
  ASSERT_TRUE(std::getline(lines, l2));
  ASSERT_TRUE(std::getline(lines, l3));
  ASSERT_TRUE(std::getline(lines, l4));

  const Response first = parse_response(l1);
  const Response second = parse_response(l2);
  ASSERT_EQ(first.status, Response::Status::kOk) << l1;
  ASSERT_EQ(second.status, Response::Status::kOk) << l2;
  EXPECT_FALSE(first.cached);
  EXPECT_TRUE(second.cached) << l2;
  EXPECT_EQ(first.field("peak_t_c"), second.field("peak_t_c"));

  // The repeat must not have re-solved: exactly one compute, one hit.
  const Response stats = parse_response(l3);
  EXPECT_EQ(stats.field("computes"), std::optional<std::string>("1"));
  EXPECT_EQ(stats.field("cache_hits"), std::optional<std::string>("1"));

  const Response bye = parse_response(l4);
  EXPECT_EQ(bye.field("bye"), std::optional<std::string>("1"));
}

TEST(ServerPipe, MalformedLinesGetErrorsAndSessionContinues) {
  Server server(small_server_options());
  std::istringstream in(
      "garbage\n"
      "ping\n"
      "quit\n");
  std::ostringstream out;
  server.serve_pipe(in, out);
  std::istringstream lines(out.str());
  std::string l1, l2;
  ASSERT_TRUE(std::getline(lines, l1));
  ASSERT_TRUE(std::getline(lines, l2));
  EXPECT_EQ(parse_response(l1).status, Response::Status::kError);
  EXPECT_EQ(parse_response(l2).field("pong"),
            std::optional<std::string>("1"));
}

TEST(Server, RunRequestProducesMetricsAndCaches) {
  Server server(small_server_options());
  Request req;
  req.kind = RequestKind::kRun;
  req.workload = "water";
  req.threads = 4;
  req.policy = "fan-only";
  req.fan = 1;
  const Response r = server.handle(req);
  ASSERT_EQ(r.status, Response::Status::kOk) << r.error;
  EXPECT_FALSE(r.cached);
  EXPECT_TRUE(r.field("energy_j"));
  EXPECT_TRUE(r.field("time_ms"));
  EXPECT_TRUE(r.field("peak_t_c"));
  const Response again = server.handle(req);
  ASSERT_EQ(again.status, Response::Status::kOk);
  EXPECT_TRUE(again.cached);
  EXPECT_EQ(r.field("energy_j"), again.field("energy_j"));
}

// The serving-path telemetry end to end: a pipe session with a miss, a
// hit and a `metrics` request must produce per-stage histograms whose
// counts match what the session actually did, with the cached path
// reading far below the computed path.
TEST(Server, MetricsVerbReportsStageHistograms) {
  Server server(small_server_options());
  std::istringstream in(
      "equilibrium workload=water threads=4 fan=1\n"
      "equilibrium workload=water threads=4 fan=1\n"
      "metrics\n"
      "stats\n"
      "quit\n");
  std::ostringstream out;
  server.serve_pipe(in, out);

  std::istringstream lines(out.str());
  std::string l1, l2, l3, l4;
  ASSERT_TRUE(std::getline(lines, l1));
  ASSERT_TRUE(std::getline(lines, l2));
  ASSERT_TRUE(std::getline(lines, l3));
  ASSERT_TRUE(std::getline(lines, l4));
  const Response metrics = parse_response(l3);
  ASSERT_EQ(metrics.status, Response::Status::kOk) << l3;

  const auto field_double = [&metrics](const std::string& key) {
    auto v = metrics.field(key);
    EXPECT_TRUE(v) << "missing field " << key;
    return v ? std::stod(*v) : -1.0;
  };
  // 5 lines parsed, 1 compute dispatched through the pool, 2 cache
  // probes (1 miss + 1 hit), every response serialized.
  EXPECT_GE(field_double("parse_count"), 3.0);
  EXPECT_EQ(field_double("cache_probe_count"), 2.0);
  EXPECT_EQ(field_double("queue_wait_count"), 1.0);
  EXPECT_EQ(field_double("compute_count"), 1.0);
  EXPECT_GE(field_double("serialize_count"), 2.0);
  EXPECT_EQ(field_double("e2e_hit_count"), 1.0);
  EXPECT_EQ(field_double("e2e_miss_count"), 1.0);
  // The cached round trip skips the simulator entirely: its end-to-end
  // latency must sit far below the computed one.
  EXPECT_LT(field_double("e2e_hit_p50_us"), field_double("e2e_miss_p50_us"));
  // Percentile extraction is wired through (p50 <= p99 <= max).
  EXPECT_LE(field_double("compute_p50_us"), field_double("compute_p99_us"));
  EXPECT_LE(field_double("compute_p99_us"),
            field_double("compute_max_us") * 1.2);
  // The bucket dump carries the full distribution: `upper_us:count`.
  const auto buckets = metrics.field("compute_buckets");
  ASSERT_TRUE(buckets);
  EXPECT_NE(buckets->find(':'), std::string::npos);
  // Server::metrics() exposes the same registry programmatically.
  bool saw_compute = false;
  for (const auto& [name, snap] : server.metrics().histograms())
    if (name == "compute") {
      saw_compute = true;
      EXPECT_EQ(snap.count, 1u);
    }
  EXPECT_TRUE(saw_compute);

  // stats grew the pool_failed counter (counter audit).
  const Response stats = parse_response(l4);
  ASSERT_EQ(stats.status, Response::Status::kOk) << l4;
  EXPECT_EQ(stats.field("pool_failed"), std::optional<std::string>("0"));
}

// Sum the counts out of a `<stage>_buckets` dump (`upper_us:count,...`).
std::uint64_t sum_bucket_counts(const std::string& buckets) {
  std::uint64_t sum = 0;
  std::size_t pos = 0;
  while (pos < buckets.size()) {
    const std::size_t colon = buckets.find(':', pos);
    if (colon == std::string::npos) break;
    std::size_t end = buckets.find(',', colon);
    if (end == std::string::npos) end = buckets.size();
    sum += std::stoull(buckets.substr(colon + 1, end - colon - 1));
    pos = end + 1;
  }
  return sum;
}

// Regression for the one-snapshot-per-dump contract: a metrics dump must
// render from a single registry snapshot. A dump that re-read the live
// instruments per field could catch a histogram between its bucket
// increment and its sibling loads, letting the bucket sum drift from the
// count; within one snapshot the count is *derived* from the bucket sums,
// so the two must agree exactly on every dump, however hard the
// concurrent load races the reader.
TEST(Server, MetricsSnapshotConsistent) {
  Server server(small_server_options());
  std::atomic<bool> stop{false};
  std::vector<std::thread> load;
  for (int t = 0; t < 3; ++t)
    load.emplace_back([&server, &stop, t] {
      int fan = t;
      while (!stop.load(std::memory_order_relaxed))
        server.handle_line("equilibrium workload=water threads=4 fan=" +
                           std::to_string(fan++ % 5));
    });

  const char* stages[] = {"parse",     "cache_probe", "queue_wait", "compute",
                          "serialize", "e2e_hit",     "e2e_miss"};
  std::map<std::string, std::uint64_t> last_count;
  for (int dump = 0; dump < 25; ++dump) {
    const Response m = parse_response(server.handle_line("metrics"));
    ASSERT_EQ(m.status, Response::Status::kOk);
    for (const char* stage : stages) {
      const auto count = m.field(std::string(stage) + "_count");
      if (!count) continue;  // stage not exercised yet
      const auto buckets = m.field(std::string(stage) + "_buckets");
      ASSERT_TRUE(buckets) << stage;
      const std::uint64_t n = std::stoull(*count);
      EXPECT_EQ(sum_bucket_counts(*buckets), n)
          << stage << " dump " << dump
          << ": bucket sum drifted from count mid-dump";
      EXPECT_GE(n, last_count[stage])
          << stage << " count went backwards across dumps";
      last_count[stage] = n;
    }
  }
  stop.store(true);
  for (auto& t : load) t.join();
}

TEST(Server, MetricsPromRendersExposition) {
  Server server(small_server_options());
  server.handle_line("equilibrium workload=water threads=4 fan=1");
  server.handle_line("equilibrium workload=water threads=4 fan=1");
  const std::string prom = server.handle_line("metrics prom");
  // The one multi-line response in the protocol: raw exposition text,
  // not an `ok ...` line. (Format-lint lives in util_test's
  // check_prometheus_format; here we pin the server's wiring.)
  EXPECT_NE(prom.rfind("ok", 0), 0u);
  EXPECT_NE(prom.find("# TYPE tecfan_requests_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("tecfan_requests_total 3"), std::string::npos) << prom;
  EXPECT_NE(prom.find("# TYPE tecfan_compute_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(prom.find("tecfan_compute_latency_us_count 1"), std::string::npos);
  // Runtime health gauges ride along.
  EXPECT_NE(prom.find("tecfan_pool_queue_depth"), std::string::npos);
  // handle_line pops the trailing newline like every other reply; the
  // exposition ends with its marker.
  ASSERT_GE(prom.size(), 5u);
  EXPECT_EQ(prom.substr(prom.size() - 5), "# EOF");
}

// -------------------------------------------------------------- tracing

TEST(Server, HeadSampledMissCarriesSpansAndTraceVerbDumpsThem) {
  auto o = small_server_options();
  o.trace_every = 1;  // sample every head request
  Server server(o);
  const std::string miss =
      server.handle_line("equilibrium workload=water threads=4 fan=1");
  ASSERT_EQ(miss.rfind("ok", 0), 0u) << miss;
  EXPECT_NE(miss.find(" trace="), std::string::npos) << miss;
  const std::size_t miss_spans = miss.find(" spans=");
  ASSERT_NE(miss_spans, std::string::npos) << miss;
  for (const char* name : {"e2e", "cache_probe", "queue_wait", "compute"})
    EXPECT_NE(miss.find(name, miss_spans), std::string::npos)
        << name << " missing from " << miss;

  // The hit is traced too (its own fresh context), but the payload that
  // came out of the cache must stay trace-free: exactly one trace= on
  // the reply, and no compute span replayed from the stored entry.
  const std::string hit =
      server.handle_line("equilibrium workload=water threads=4 fan=1");
  ASSERT_EQ(hit.rfind("ok", 0), 0u) << hit;
  EXPECT_NE(hit.find(" cached=1"), std::string::npos) << hit;
  const std::size_t first = hit.find(" trace=");
  ASSERT_NE(first, std::string::npos) << hit;
  EXPECT_EQ(hit.find(" trace=", first + 1), std::string::npos) << hit;
  const std::size_t hit_spans = hit.find(" spans=");
  ASSERT_NE(hit_spans, std::string::npos) << hit;
  EXPECT_EQ(hit.find("compute", hit_spans), std::string::npos) << hit;

  const Response dump = parse_response(server.handle_line("trace limit=8"));
  ASSERT_EQ(dump.status, Response::Status::kOk);
  ASSERT_TRUE(dump.field("traces"));
  EXPECT_GE(std::stoi(*dump.field("traces")), 2);
  const auto t0 = dump.field("t0");
  ASSERT_TRUE(t0);
  EXPECT_NE(t0->find("\"name\":\"e2e\""), std::string::npos) << *t0;
  EXPECT_NE(t0->find("\"tier\":\"tecfand\""), std::string::npos) << *t0;

  EXPECT_EQ(server.tracer().sampled_traces(), 2u);
  EXPECT_EQ(server.tracer().open_spans(), 0);
}

TEST(Server, PropagatedTraceContextIsAdoptedNotResampled) {
  Server server(small_server_options());  // trace_every = 0: never heads
  const std::string reply = server.handle_line(
      "equilibrium workload=water threads=4 fan=1 trace=deadbeef-1f");
  ASSERT_EQ(reply.rfind("ok", 0), 0u) << reply;
  // The reply context keeps the upstream trace id (new root span id).
  EXPECT_NE(reply.find(" trace=deadbeef-"), std::string::npos) << reply;
  EXPECT_NE(reply.find(" spans="), std::string::npos) << reply;
  EXPECT_EQ(server.tracer().adopted_traces(), 1u);
  EXPECT_EQ(server.tracer().sampled_traces(), 0u);

  // An untraced request on the same server stays untraced.
  const std::string plain =
      server.handle_line("equilibrium workload=water threads=4 fan=2");
  EXPECT_EQ(plain.find(" trace="), std::string::npos) << plain;

  const Response stats = parse_response(server.handle_line("stats"));
  ASSERT_EQ(stats.status, Response::Status::kOk);
  EXPECT_EQ(stats.field("traces_adopted"), std::optional<std::string>("1"));
  EXPECT_EQ(stats.field("traces_sampled"), std::optional<std::string>("0"));
  EXPECT_TRUE(stats.field("uptime_s"));
  EXPECT_TRUE(stats.field("build"));
}

TEST(Server, UnknownPolicyAndWorkloadAreErrors) {
  Server server(small_server_options());
  Request req;
  req.kind = RequestKind::kRun;
  req.workload = "water";
  req.threads = 4;
  req.policy = "frobnicate";
  EXPECT_EQ(server.handle(req).status, Response::Status::kError);

  Request bad_wl;
  bad_wl.kind = RequestKind::kEquilibrium;
  bad_wl.workload = "doom";
  bad_wl.threads = 4;
  EXPECT_EQ(server.handle(bad_wl).status, Response::Status::kError);
  EXPECT_EQ(server.stats().errors, 2u);
}

TEST(Server, DefaultWorkerCountIsClamped) {
  const std::size_t n = default_worker_count();
  EXPECT_GE(n, 2u);
  EXPECT_LE(n, 16u);
}

// Eight workers, one engine: every compute builds a throwaway simulator
// over the server's single shared ChipEngine. Run under TSan in the tier-1
// leg this is the service-layer proof of the engine/workspace split.
TEST(Server, EightWorkersShareOneEngine) {
  ServerOptions opts = small_server_options();
  opts.workers = 8;
  opts.queue_capacity = 32;
  Server server(opts);
  ASSERT_GT(server.engine().memory_bytes(), 0u);

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  std::atomic<int> failures{0};
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&server, &failures, i] {
      Request req;
      req.kind = RequestKind::kEquilibrium;
      req.workload = "water";
      req.threads = 4;
      req.fan = i % 7;  // distinct knobs: mostly cache misses, all computes
      const Response r = server.handle(req);
      if (r.status != Response::Status::kOk) failures.fetch_add(1);
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  const Server::Stats s = server.stats();
  EXPECT_GT(s.computes, 0u);
  // The shared engine dominates; per-worker scratch is a small fraction.
  EXPECT_GT(s.engine_bytes, 0u);
  EXPECT_GT(s.workspace_bytes, 0u);
  EXPECT_GT(s.engine_bytes, s.workspace_bytes);
}

// Eight concurrent `run` requests, one shared ControlEngine: every policy
// the factory builds borrows the engine the server's ChipEngine owns and
// adds only its own PolicyWorkspace. Distinct (policy, workload, fan)
// combos keep every client on the compute path. Run under TSan in the
// tier-1 leg this is the control-layer proof of the engine/workspace
// split.
TEST(Server, SharedControlEngineAcrossConcurrentRuns) {
  ServerOptions opts = small_server_options();
  opts.workers = 8;
  opts.queue_capacity = 32;
  Server server(opts);
  ASSERT_NE(server.engine().control(), nullptr);
  ASSERT_GT(server.engine().control()->memory_bytes(), 0u);

  const char* policies[] = {"fan-only", "fan+tec",     "fan+dvfs",
                            "dvfs+tec", "dynamic-fan", "tecfan",
                            "tecfan-chipwide", "tecfan"};
  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  std::atomic<int> failures{0};
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&server, &failures, &policies, i] {
      Request req;
      req.kind = RequestKind::kRun;
      req.workload = i % 2 == 0 ? "water" : "cholesky";
      req.threads = 4;
      req.policy = policies[i];
      req.fan = i % 4;
      const Response r = server.handle(req);
      if (r.status != Response::Status::kOk) failures.fetch_add(1);
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(server.stats().computes, 0u);
}

TEST(ServerTcp, RoundTripAndConcurrentClients) {
  Server server(small_server_options());
  const std::uint16_t port = server.start();

  auto client_session = [port](int salt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    const std::string req = "equilibrium workload=water threads=4 fan=" +
                            std::to_string(salt % 2) + "\nquit\n";
    ASSERT_EQ(::send(fd, req.data(), req.size(), 0),
              static_cast<ssize_t>(req.size()));
    std::string acc;
    char buf[1024];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      acc.append(buf, static_cast<std::size_t>(n));
      if (std::count(acc.begin(), acc.end(), '\n') >= 2) break;
    }
    ::close(fd);
    std::istringstream lines(acc);
    std::string l1;
    ASSERT_TRUE(std::getline(lines, l1));
    EXPECT_EQ(parse_response(l1).status, Response::Status::kOk) << l1;
  };

  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c)
    clients.emplace_back([&client_session, c] { client_session(c); });
  for (auto& t : clients) t.join();

  server.stop();
  EXPECT_GE(server.stats().requests, 6u);  // 3 x (equilibrium + quit)
}

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

// Regression: a client that pipelines requests and disconnects without
// reading leaves the connection thread writing into a closed socket.
// Library sends use MSG_NOSIGNAL, so that must surface as a per-session
// error, not a SIGPIPE that kills the whole daemon (the gtest process
// here). Before the fix this test dies with SIGPIPE.
TEST(ServerTcp, ClientDisconnectMidWriteDoesNotKillTheServer) {
  Server server(small_server_options());
  const std::uint16_t port = server.start();

  for (int round = 0; round < 4; ++round) {
    const int fd = connect_to(port);
    // `stats` replies are long enough to still be in flight when the
    // close lands; pipeline many so writes keep hitting the dead socket.
    std::string burst;
    for (int i = 0; i < 64; ++i) burst += "stats\n";
    (void)::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL);
    ::close(fd);  // vanish without reading a single reply
  }

  // The daemon must still be alive and serving fresh connections.
  const int fd = connect_to(port);
  const std::string req = "ping\nquit\n";
  ASSERT_EQ(::send(fd, req.data(), req.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(req.size()));
  std::string acc;
  char buf[256];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    acc.append(buf, static_cast<std::size_t>(n));
    if (std::count(acc.begin(), acc.end(), '\n') >= 2) break;
  }
  ::close(fd);
  EXPECT_EQ(parse_response(acc.substr(0, acc.find('\n')))
                .field("pong"),
            std::optional<std::string>("1"))
      << acc;
  server.stop();
}

// ---------------------------------------------------------- server lifecycle

std::unique_ptr<Daemon> make_server() {
  return std::make_unique<Server>(small_server_options());
}

TEST(ServerLifecycle, EphemeralPortCanBeReboundAfterStop) {
  tecfan::lifecycle::rebind_after_stop(make_server);
}

TEST(ServerLifecycle, StopRacingServeShutsDownCleanly) {
  tecfan::lifecycle::stop_racing_serve(make_server);
}

TEST(ServerLifecycle, StopDrainsInFlightConnections) {
  tecfan::lifecycle::stop_drains_open_sessions(make_server);
}

/// Lines in /proc/self/maps: one per memory mapping of this process.
std::size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t n = 0;
  for (std::string line; std::getline(maps, line);) ++n;
  return n;
}

// Regression: the accept loop kept every session's thread until stop(),
// so each closed connection left its stack and guard mappings behind;
// ~32k connections (one per router health probe, for instance) exhausted
// vm.max_map_count and aborted the daemon. Finished sessions are now
// joined as new connections arrive.
TEST(ServerLifecycle, ClosedSessionsDoNotAccumulateThreads) {
  Server server(small_server_options());
  const std::uint16_t port = server.start();
  const auto ping_once = [port] {
    const int fd = connect_to(port);
    LineReader reader(fd);
    EXPECT_TRUE(send_all(fd, "ping\n"));
    EXPECT_TRUE(reader.read_line(std::chrono::steady_clock::now() + 10s));
    ::close(fd);
  };
  for (int i = 0; i < 20; ++i) ping_once();  // warm allocator + stack caches
  const std::size_t before = mapping_count();
  for (int i = 0; i < 300; ++i) ping_once();
  const std::size_t after = mapping_count();
  // Unjoined, 300 sessions would add ~600 mappings (stack + guard each).
  EXPECT_LT(after, before + 100) << before << " -> " << after;
  server.stop();
}

// -------------------------------------------------- framing: line bounds

// Regression: LineReader buffered bytes without limit when a peer
// streamed data with no '\n' (or one absurdly long line). The reader now
// latches overflowed() at the cap and stops producing lines.
TEST(LineReader, NewlineFreeStreamLatchesOverflowInsteadOfGrowing) {
  LineReader reader;
  reader.set_max_line_bytes(64);
  for (int i = 0; i < 8 && !reader.overflowed(); ++i)
    reader.append(std::string(32, 'x'));  // never a newline
  EXPECT_TRUE(reader.overflowed());
  EXPECT_FALSE(reader.has_line());
  EXPECT_EQ(reader.pop_line(), std::nullopt);
  // The buffer stopped growing near the cap instead of holding all 256.
  EXPECT_LE(reader.buffered_bytes(), reader.max_line_bytes() + 32);
}

TEST(LineReader, OverlongLineWithNewlineAlsoOverflows) {
  LineReader reader;
  reader.set_max_line_bytes(16);
  reader.append(std::string(40, 'y') + "\nok\n");
  EXPECT_TRUE(reader.overflowed());
  // Even the complete short line behind it is withheld: the session is
  // protocol-broken and must be abandoned, not resynchronized.
  EXPECT_EQ(reader.pop_line(), std::nullopt);
}

TEST(LineReader, LinesUnderTheCapAreUnaffected) {
  LineReader reader;
  reader.set_max_line_bytes(16);
  reader.append("alpha\nbeta\n");
  EXPECT_FALSE(reader.overflowed());
  EXPECT_EQ(reader.pop_line(), std::optional<std::string>("alpha"));
  EXPECT_EQ(reader.pop_line(), std::optional<std::string>("beta"));
  reader.reset(-1);
  EXPECT_FALSE(reader.overflowed());
}

TEST(LineReader, BlockingReadPathLatchesOverflowToo) {
  int sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  LineReader reader(sp[0]);
  reader.set_max_line_bytes(64);
  const std::string flood(256, 'z');  // no newline, over the cap
  ASSERT_EQ(::send(sp[1], flood.data(), flood.size(), 0),
            static_cast<ssize_t>(flood.size()));
  EXPECT_EQ(reader.read_line(std::chrono::steady_clock::now() + 2s),
            std::nullopt);
  EXPECT_TRUE(reader.overflowed());
  ::close(sp[0]);
  ::close(sp[1]);
}

// The server answers one protocol error and hangs up on an over-long
// request line instead of buffering it without bound.
TEST(ServerTcp, OverlongRequestLineGetsAnErrorAndTheBoot) {
  Server server(small_server_options());
  const std::uint16_t port = server.start();

  const int fd = connect_to(port);
  // > kDefaultMaxLineBytes of newline-free garbage.
  const std::string chunk(64 * 1024, 'q');
  bool peer_gone = false;
  for (int i = 0; i < 20 && !peer_gone; ++i)
    peer_gone = ::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL) < 0;
  ::shutdown(fd, SHUT_WR);
  LineReader reader(fd);
  const auto reply = reader.read_line(std::chrono::steady_clock::now() + 5s);
  ASSERT_TRUE(reply.has_value());
  const Response r = parse_response(*reply);
  EXPECT_EQ(r.status, Response::Status::kError);
  EXPECT_NE(r.error.find("too long"), std::string::npos) << *reply;
  // And then EOF: the session is gone, not draining the flood.
  EXPECT_EQ(reader.read_line(std::chrono::steady_clock::now() + 5s),
            std::nullopt);
  ::close(fd);

  server.stop();
  EXPECT_GE(server.stats().errors, 1u);
}

// ----------------------------------------------- framing: fault injection

TEST(FaultInjector, SameSeedSameDecisionStream) {
  ScheduledFaultInjector::Options o;
  o.seed = 42;
  o.send_short_p = 0.5;
  o.send_short_cap = 3;
  o.recv_eof_p = 0.25;
  ScheduledFaultInjector a(o), b(o);
  for (int i = 0; i < 64; ++i) {
    const FaultDecision da = a.on_send(3, 100);
    const FaultDecision db = b.on_send(3, 100);
    EXPECT_EQ(static_cast<int>(da.kind), static_cast<int>(db.kind));
    const FaultDecision ra = a.on_recv(3);
    const FaultDecision rb = b.on_recv(3);
    EXPECT_EQ(static_cast<int>(ra.kind), static_cast<int>(rb.kind));
  }
  const auto ca = a.counts(), cb = b.counts();
  EXPECT_EQ(ca.sends_shortened, cb.sends_shortened);
  EXPECT_EQ(ca.recvs_eof, cb.recvs_eof);
  EXPECT_GT(ca.total_injected(), 0u);
}

TEST(FaultInjector, ConnectFaultsAreScopedToListedPorts) {
  ScheduledFaultInjector::Options o;
  o.seed = 7;
  o.connect_refuse_p = 1.0;
  o.connect_ports = {7411};
  ScheduledFaultInjector injector(o);
  EXPECT_EQ(injector.on_connect(7411).kind, FaultDecision::Kind::kFail);
  EXPECT_EQ(injector.on_connect(7412).kind, FaultDecision::Kind::kNone);
}

TEST(FaultInjector, SendAllDeliversEverythingUnderShortWrites) {
  int sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  ScheduledFaultInjector::Options o;
  o.seed = 9;
  o.send_short_p = 1.0;  // every send capped
  o.send_short_cap = 3;
  ScheduledFaultInjector injector(o);
  std::string payload;
  for (int i = 0; i < 200; ++i) payload += "line " + std::to_string(i) + "\n";
  std::string got;
  std::thread reader_thread([&] {
    char buf[512];
    ssize_t n;
    while ((n = ::recv(sp[1], buf, sizeof(buf), 0)) > 0)
      got.append(buf, static_cast<std::size_t>(n));
  });
  {
    ScopedFaultInjector armed(&injector);
    EXPECT_TRUE(send_all(sp[0], payload));
  }
  ::shutdown(sp[0], SHUT_WR);
  reader_thread.join();
  EXPECT_EQ(got, payload);  // byte-exact despite 3-byte writes
  EXPECT_GT(injector.counts().sends_shortened, 0u);
  ::close(sp[0]);
  ::close(sp[1]);
}

TEST(FaultInjector, SendAllReportsInjectedFailure) {
  int sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  ScheduledFaultInjector::Options o;
  o.seed = 11;
  o.send_fail_p = 1.0;
  ScheduledFaultInjector injector(o);
  {
    ScopedFaultInjector armed(&injector);
    EXPECT_FALSE(send_all(sp[0], "ping\n"));
  }
  EXPECT_TRUE(send_all(sp[0], "ping\n"));  // disarmed: works again
  ::close(sp[0]);
  ::close(sp[1]);
}

// Regression for the gathered-sendmsg path: partial writes (including an
// injected 1-byte cap) must deliver every byte exactly once, and a
// zero-byte sendmsg return must not spin the flush loop.
TEST(WriteQueue, FlushDeliversExactlyOnceUnderInjectedShortWrites) {
  int sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  ASSERT_TRUE(set_nonblocking(sp[0]));
  WriteQueue q;
  std::string expect;
  for (int i = 0; i < 300; ++i) {
    std::string chunk = "chunk " + std::to_string(i) + "\n";
    expect += chunk;
    q.push(std::move(chunk));
  }
  ScheduledFaultInjector::Options o;
  o.seed = 13;
  o.send_short_p = 1.0;
  o.send_short_cap = 1;  // worst case: one byte per gathered flush
  ScheduledFaultInjector injector(o);
  std::string got;
  char buf[4096];
  {
    ScopedFaultInjector armed(&injector);
    int spins = 0;
    while (!q.empty()) {
      const auto r = q.flush(sp[0]);
      ASSERT_NE(r, WriteQueue::FlushResult::kError);
      // Drain the peer so a kBlocked result can make progress again.
      ssize_t n;
      while ((n = ::recv(sp[1], buf, sizeof(buf), MSG_DONTWAIT)) > 0)
        got.append(buf, static_cast<std::size_t>(n));
      ASSERT_LT(++spins, 1000000) << "flush loop is not making progress";
    }
  }
  ssize_t n;
  while ((n = ::recv(sp[1], buf, sizeof(buf), MSG_DONTWAIT)) > 0)
    got.append(buf, static_cast<std::size_t>(n));
  EXPECT_EQ(got.size(), expect.size());
  EXPECT_EQ(got, expect);
  EXPECT_GT(injector.counts().sends_shortened, 0u);
  ::close(sp[0]);
  ::close(sp[1]);
}

TEST(FaultInjector, FaultedRecvDribblesAndEofs) {
  int sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  const std::string line = "ok pong=1\n";
  ASSERT_EQ(::send(sp[1], line.data(), line.size(), 0),
            static_cast<ssize_t>(line.size()));
  ScheduledFaultInjector::Options o;
  o.seed = 17;
  o.recv_short_p = 1.0;
  o.recv_short_cap = 1;  // one byte per recv
  ScheduledFaultInjector injector(o);
  {
    ScopedFaultInjector armed(&injector);
    LineReader reader(sp[0]);
    const auto got = reader.read_line(std::chrono::steady_clock::now() + 2s);
    EXPECT_EQ(got, std::optional<std::string>("ok pong=1"));
    EXPECT_GT(injector.counts().recvs_shortened, 8u);
  }
  ScheduledFaultInjector::Options eof;
  eof.seed = 19;
  eof.recv_eof_p = 1.0;
  ScheduledFaultInjector eof_injector(eof);
  ASSERT_EQ(::send(sp[1], line.data(), line.size(), 0),
            static_cast<ssize_t>(line.size()));
  {
    ScopedFaultInjector armed(&eof_injector);
    LineReader reader(sp[0]);
    // Injected EOF: the reader sees an orderly close despite live data.
    EXPECT_EQ(reader.read_line(std::chrono::steady_clock::now() + 2s),
              std::nullopt);
  }
  ::close(sp[0]);
  ::close(sp[1]);
}

// Counter conservation is checkable over the wire: the stats verb reports
// pool_submits alongside the terminal counters.
TEST(Server, StatsVerbReportsConservedPoolCounters) {
  Server server(small_server_options());
  bool quit = false;
  for (int fan = 0; fan < 3; ++fan)
    server.handle_line("equilibrium workload=water threads=4 fan=" +
                           std::to_string(fan),
                       &quit);
  server.handle_line("equilibrium workload=nosuch", &quit);  // parse error
  const Response stats = parse_response(server.handle_line("stats", &quit));
  ASSERT_EQ(stats.status, Response::Status::kOk);
  const auto field = [&](const char* k) {
    const auto v = stats.field(k);
    EXPECT_TRUE(v.has_value()) << k;
    return v ? std::stoull(*v) : 0ull;
  };
  const auto submits = field("pool_submits");
  EXPECT_GE(submits, 3u);
  EXPECT_EQ(submits, field("pool_executed") + field("pool_failed") +
                         field("pool_expired") + field("pool_rejected"));
}

}  // namespace
