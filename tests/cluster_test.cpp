// Tests for the cluster layer: the consistent-hash ShardMap, HealthMonitor
// markdown/recovery, and end-to-end router smoke tests over TCP (routed
// responses bit-identical to direct serving, disjoint backend cache
// shards, transparent failover when a backend dies). The ClusterSmoke
// suite runs real in-process Server fleets behind a live router and is
// included in the tier-1 TSan and ASan legs.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/event_loop.h"
#include "cluster/health_monitor.h"
#include "cluster/router.h"
#include "cluster/shard_map.h"
#include "daemon_lifecycle.h"
#include "service/framing.h"
#include "service/request.h"
#include "service/server.h"

namespace {

using namespace tecfan;
using namespace std::chrono_literals;

// ---------------------------------------------------------------- shard map

std::vector<std::string> sample_keys(std::size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  const char* workloads[] = {"water", "cholesky", "lu", "fmm", "volrend"};
  std::size_t i = 0;
  while (keys.size() < n) {
    service::Request r;
    r.kind = service::RequestKind::kEquilibrium;
    r.workload = workloads[i % 5];
    r.threads = (i / 5) % 2 ? 16 : 4;
    r.fan = static_cast<int>(i % 8);
    r.dvfs = static_cast<int>((i / 8) % 4);
    keys.push_back(service::canonical_key(r));
    ++i;
    if (i > 10 * n) break;  // workload/fan/dvfs grid exhausted
  }
  return keys;
}

TEST(ShardMap, HashIsStableAcrossProcessesAndBuilds) {
  // FNV-1a 64 golden values: the ring layout must never depend on
  // std::hash or the build, or a router restart remaps every key.
  EXPECT_EQ(cluster::stable_hash(""), 14695981039346656037ull);
  EXPECT_EQ(cluster::stable_hash("a"), 12638187200555641996ull);
  EXPECT_EQ(cluster::stable_hash("backend-0#0"),
            cluster::stable_hash(std::string("backend-0#0")));
  EXPECT_NE(cluster::stable_hash("backend-0#0"),
            cluster::stable_hash("backend-0#1"));
}

TEST(ShardMap, OwnerIsDeterministicAcrossInstances) {
  const cluster::ShardMap a(4), b(4);
  for (const auto& key : sample_keys(64)) {
    EXPECT_EQ(a.owner(key), b.owner(key)) << key;
    EXPECT_LT(a.owner(key), 4u);
  }
}

TEST(ShardMap, EveryBackendOwnsAShare) {
  const cluster::ShardMap map(4, 64);
  const auto keys = sample_keys(320);
  std::map<std::size_t, std::size_t> share;
  for (const auto& key : keys) ++share[map.owner(key)];
  ASSERT_EQ(share.size(), 4u);  // no empty shard with 64 vnodes
  for (const auto& [backend, count] : share) {
    // Loose balance bounds: FNV + 64 vnodes keeps shards within a few x.
    EXPECT_GE(count, keys.size() / 20) << "backend " << backend;
    EXPECT_LE(count, keys.size() * 6 / 10) << "backend " << backend;
  }
}

TEST(ShardMap, ReplicaChainIsDistinctAndStartsAtOwner) {
  const cluster::ShardMap map(4);
  for (const auto& key : sample_keys(32)) {
    const auto chain = map.replica_chain(key);
    ASSERT_EQ(chain.size(), 4u);
    EXPECT_EQ(chain[0], map.owner(key));
    std::set<std::size_t> distinct(chain.begin(), chain.end());
    EXPECT_EQ(distinct.size(), 4u) << key;

    const auto truncated = map.replica_chain(key, 2);
    ASSERT_EQ(truncated.size(), 2u);
    EXPECT_EQ(truncated[0], chain[0]);
    EXPECT_EQ(truncated[1], chain[1]);
  }
}

TEST(ShardMap, FleetGrowthMovesOnlyAMinorityOfKeys) {
  // Consistent hashing's point: going 4 -> 5 backends should move ~1/5 of
  // keys (to the new backend only), not reshuffle everything. Allow
  // generous slack for virtual-node variance.
  const cluster::ShardMap before(4), after(5);
  const auto keys = sample_keys(320);
  std::size_t moved = 0, moved_elsewhere = 0;
  for (const auto& key : keys) {
    const std::size_t a = before.owner(key), b = after.owner(key);
    if (a != b) {
      ++moved;
      if (b != 4) ++moved_elsewhere;  // moved to an OLD backend: forbidden
    }
  }
  EXPECT_EQ(moved_elsewhere, 0u);
  EXPECT_LT(moved, keys.size() / 2);
  EXPECT_GT(moved, 0u);  // the new backend did take some share
}

// ------------------------------------------------------------ test fleets

service::ServerOptions small_server_options() {
  service::ServerOptions o;
  o.tiles_x = 2;
  o.tiles_y = 2;
  o.workers = 2;
  o.queue_capacity = 8;
  o.cache_capacity = 64;
  o.max_sim_time_s = 0.05;
  return o;
}

/// A Server bound to an ephemeral port with its accept loop running.
struct LiveServer {
  explicit LiveServer(service::ServerOptions options = small_server_options())
      : server(std::make_unique<service::Server>(options)),
        port(server->start()) {}
  /// Stop and destroy the server, closing its listening port (the fleet
  /// member "dies"; the port stays free for the failover tests).
  void kill() { server.reset(); }

  std::unique_ptr<service::Server> server;
  std::uint16_t port = 0;
};

/// A listening socket that accepts connections and reads forever but
/// never replies — a backend that dials fine yet stalls every request.
struct SilentBackend {
  SilentBackend() {
    const service::Listener listener = service::listen_loopback(0);
    listen_fd = listener.fd;
    port = listener.port;
    thread = std::thread([this] {
      while (!stop.load()) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) break;  // listen_fd closed by the destructor
        std::lock_guard<std::mutex> lock(mu);
        conn_fds.push_back(fd);
      }
    });
  }
  ~SilentBackend() {
    stop.store(true);
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
    if (thread.joinable()) thread.join();
    for (const int fd : conn_fds) ::close(fd);
  }

  int listen_fd = -1;
  std::uint16_t port = 0;
  std::atomic<bool> stop{false};
  std::mutex mu;
  std::vector<int> conn_fds;
  std::thread thread;
};

/// Bind-then-close: a loopback port with nothing listening on it.
std::uint16_t dead_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ::close(fd);
  return ntohs(addr.sin_port);
}

/// A raw line-protocol client that can pipeline: write many request lines
/// in one burst, then read the responses back one by one.
struct RawClient {
  explicit RawClient(std::uint16_t port)
      : fd(service::connect_loopback(port)), reader(fd) {
    EXPECT_GE(fd, 0);
  }
  ~RawClient() {
    if (fd >= 0) ::close(fd);
  }
  bool send_lines(const std::vector<std::string>& lines) {
    std::string burst;
    for (const auto& line : lines) burst += line + '\n';
    return service::send_all(fd, burst);
  }
  std::optional<std::string> read_line(std::chrono::seconds timeout = 30s) {
    return reader.read_line(std::chrono::steady_clock::now() + timeout);
  }
  /// Send one line and return its reply ("" when none arrives).
  std::string round_trip(const std::string& line) {
    if (!send_lines({line})) return "";
    return read_line().value_or("");
  }

  int fd = -1;
  service::LineReader reader;
};

/// A backend whose responses are scripted per connection: the i-th request
/// line on a connection is answered with script[i] verbatim; requests past
/// the end of the script are swallowed silently (the backend stalls).
struct ScriptedBackend {
  explicit ScriptedBackend(std::vector<std::string> script_lines)
      : script(std::move(script_lines)) {
    const service::Listener listener = service::listen_loopback(0);
    listen_fd = listener.fd;
    port = listener.port;
    thread = std::thread([this] {
      for (;;) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) break;  // listen_fd closed by the destructor
        {
          std::lock_guard<std::mutex> lock(mu);
          conn_fds.push_back(fd);
        }
        service::LineReader conn_reader(fd);
        std::size_t i = 0;
        while (auto line = conn_reader.read_line()) {
          if (i < script.size()) service::send_all(fd, script[i] + "\n");
          ++i;  // past the script: swallow the request, never reply
        }
      }
    });
  }
  ~ScriptedBackend() {
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
    close_conns();
    if (thread.joinable()) thread.join();
    std::lock_guard<std::mutex> lock(mu);
    for (const int fd : conn_fds) ::close(fd);
  }
  /// Hard-stop every accepted connection: the router sees EOF with its
  /// whole in-flight FIFO outstanding — the backend "died".
  void close_conns() {
    std::lock_guard<std::mutex> lock(mu);
    for (const int fd : conn_fds) ::shutdown(fd, SHUT_RDWR);
  }

  std::vector<std::string> script;
  int listen_fd = -1;
  std::uint16_t port = 0;
  std::mutex mu;
  std::vector<int> conn_fds;
  std::thread thread;
};

/// A router with its data plane serving on an ephemeral port.
struct LiveRouter {
  explicit LiveRouter(cluster::RouterOptions options)
      : router(std::move(options)), port(router.start()) {}
  cluster::Router router;
  std::uint16_t port = 0;
};

// ------------------------------------------------------------ health monitor

TEST(HealthMonitor, TrafficReportsMarkDownAndRecover) {
  // No monitor thread: pure traffic-path observations.
  cluster::HealthMonitor::Options opts;
  opts.down_after = 2;
  cluster::HealthMonitor monitor({dead_port()}, opts);

  EXPECT_TRUE(monitor.up(0));  // optimistic start
  monitor.report_failure(0);
  EXPECT_TRUE(monitor.up(0));  // one failure is not a markdown
  monitor.report_failure(0);
  EXPECT_FALSE(monitor.up(0));
  EXPECT_EQ(monitor.up_count(), 0u);
  EXPECT_EQ(monitor.health(0).markdowns, 1u);

  monitor.report_success(0);  // first success marks up immediately
  EXPECT_TRUE(monitor.up(0));
  EXPECT_EQ(monitor.up_count(), 1u);
}

TEST(HealthMonitor, ProbesMarkDeadBackendDownAndLiveBackendUp) {
  LiveServer live;
  cluster::HealthMonitor::Options opts;
  opts.interval_s = 0.01;
  opts.down_after = 2;
  opts.ping_timeout_ms = 200.0;
  cluster::HealthMonitor monitor({live.port, dead_port()}, opts);
  monitor.start();

  monitor.probe_now();
  monitor.probe_now();  // second consecutive failure => markdown

  EXPECT_TRUE(monitor.up(0));
  EXPECT_FALSE(monitor.up(1));
  EXPECT_EQ(monitor.up_count(), 1u);

  const auto healthy = monitor.health(0);
  EXPECT_GE(healthy.probes, 2u);
  EXPECT_EQ(healthy.probe_failures, 0u);
  EXPECT_GT(healthy.last_rtt_us, 0.0);
  const auto dead = monitor.health(1);
  EXPECT_GE(dead.probe_failures, 2u);
  EXPECT_EQ(dead.markdowns, 1u);
  monitor.stop();
}

TEST(HealthMonitor, RestartedBackendIsMarkedUpAgain) {
  auto backend = std::make_unique<LiveServer>();
  const std::uint16_t port = backend->port;
  cluster::HealthMonitor::Options opts;
  opts.interval_s = 0.01;
  opts.down_after = 1;
  opts.backoff_base_s = 0.01;
  opts.backoff_max_s = 0.05;
  cluster::HealthMonitor monitor({port}, opts);
  monitor.start();
  monitor.probe_now();
  ASSERT_TRUE(monitor.up(0));

  backend->kill();
  monitor.probe_now();
  ASSERT_FALSE(monitor.up(0));

  // Same port, new process (well, new Server): the monitor must notice.
  service::Server revived(small_server_options());
  ASSERT_EQ(revived.start(port), port);
  for (int i = 0; i < 100 && !monitor.up(0); ++i) monitor.probe_now();
  EXPECT_TRUE(monitor.up(0));
  monitor.stop();
}

// ------------------------------------------------------------ router smoke

cluster::RouterOptions router_options(
    const std::vector<std::uint16_t>& ports) {
  cluster::RouterOptions o;
  o.backend_ports = ports;
  o.health.interval_s = 0.05;
  o.health.ping_timeout_ms = 500.0;
  return o;
}

std::vector<std::string> distinct_requests(std::size_t n) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < n; ++i)
    lines.push_back("equilibrium workload=water threads=4 fan=" +
                    std::to_string(i % 7) + " dvfs=" + std::to_string(i / 7));
  return lines;
}

// ---------------------------------------------------------- router lifecycle

// The same listener-lifecycle checks tecfand passes (ServerLifecycle), for
// the router: its serve loop is the epoll data plane, which stop() wakes
// through the wake the router registers with the shell. Local verbs need
// no live backend.
std::unique_ptr<service::Daemon> make_router() {
  return std::make_unique<cluster::Router>(router_options({dead_port()}));
}

TEST(RouterLifecycle, EphemeralPortCanBeReboundAfterStop) {
  lifecycle::rebind_after_stop(make_router);
}

TEST(RouterLifecycle, StopRacingServeShutsDownCleanly) {
  lifecycle::stop_racing_serve(make_router);
}

TEST(RouterLifecycle, StopDrainsInFlightConnections) {
  lifecycle::stop_drains_open_sessions(make_router);
}

TEST(ClusterSmoke, ControlVerbsAreAnsweredLocally) {
  LiveServer b0, b1;
  LiveRouter router(router_options({b0.port, b1.port}));
  RawClient conn(router.port);

  const auto pong = service::parse_response(conn.round_trip("ping"));
  EXPECT_EQ(pong.field("pong"), std::optional<std::string>("1"));

  const auto stats = service::parse_response(conn.round_trip("stats"));
  ASSERT_EQ(stats.status, service::Response::Status::kOk);
  EXPECT_EQ(stats.field("name"), std::optional<std::string>("tecrouter"));
  EXPECT_EQ(stats.field("backends"), std::optional<std::string>("2"));
  EXPECT_EQ(stats.field("backend0_port"),
            std::optional<std::string>(std::to_string(b0.port)));

  // `quit` is answered, then ends this client's session.
  const auto bye = service::parse_response(conn.round_trip("quit"));
  EXPECT_EQ(bye.field("bye"), std::optional<std::string>("1"));
  EXPECT_FALSE(conn.read_line(5s));

  // None of those touched a backend.
  EXPECT_EQ(router.router.stats().routed, 0u);
  EXPECT_EQ(router.router.stats().local, 3u);
}

TEST(ClusterSmoke, RoutedRepliesAreBitIdenticalToDirectServing) {
  LiveServer b0, b1;
  LiveRouter router(router_options({b0.port, b1.port}));
  RawClient conn(router.port);
  service::Server direct(small_server_options());  // reference: no fleet

  const auto requests = distinct_requests(8);
  std::vector<std::string> first_pass;
  for (const auto& line : requests) {
    const std::string routed = conn.round_trip(line);
    const auto parsed = service::parse_response(routed);
    ASSERT_EQ(parsed.status, service::Response::Status::kOk) << routed;
    EXPECT_FALSE(parsed.cached) << routed;

    // Same solver, same floorplan => the routed reply must match a direct
    // Server field for field (the fleet is an implementation detail).
    const auto ref = direct.handle(
        service::parse_request(line).request);
    EXPECT_EQ(parsed.field("peak_t_c"), ref.field("peak_t_c")) << line;
    EXPECT_EQ(parsed.field("peak_t_k"), ref.field("peak_t_k")) << line;
    first_pass.push_back(routed);
  }

  // Second pass: every reply is a cache hit on its owning shard, and the
  // payload matches the miss-path reply except for the cached flag.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::string routed = conn.round_trip(requests[i]);
    const auto parsed = service::parse_response(routed);
    ASSERT_EQ(parsed.status, service::Response::Status::kOk) << routed;
    EXPECT_TRUE(parsed.cached) << routed;
    const auto miss = service::parse_response(first_pass[i]);
    EXPECT_EQ(parsed.field("peak_t_c"), miss.field("peak_t_c"));
    EXPECT_EQ(parsed.field("energy_j"), miss.field("energy_j"));
  }

  // Sharding is disjoint: each key computed exactly once fleet-wide, on
  // the backend the ShardMap names as its owner.
  const auto s0 = b0.server->stats(), s1 = b1.server->stats();
  EXPECT_EQ(s0.computes + s1.computes, requests.size());
  EXPECT_EQ(s0.cache.hits + s1.cache.hits, requests.size());
  std::size_t owned0 = 0;
  for (const auto& line : requests)
    if (router.router.shards().owner(service::canonical_key(
            service::parse_request(line).request)) == 0)
      ++owned0;
  EXPECT_EQ(s0.computes, owned0);

  const auto rs = router.router.stats();
  EXPECT_EQ(rs.routed, 2 * requests.size());
  EXPECT_EQ(rs.failovers, 0u);
  EXPECT_EQ(rs.errors, 0u);
}

TEST(ClusterSmoke, FailoverOnBackendDeathIsInvisibleToClients) {
  LiveServer b0, b1;
  auto opts = router_options({b0.port, b1.port});
  opts.health.down_after = 2;
  LiveRouter live(opts);
  cluster::Router& router = live.router;
  RawClient conn(live.port);

  // Find a request owned by each backend, then warm both.
  std::string owned_by[2];
  for (const auto& line : distinct_requests(16)) {
    const auto key =
        service::canonical_key(service::parse_request(line).request);
    owned_by[router.shards().owner(key)] = line;
  }
  ASSERT_FALSE(owned_by[0].empty());
  ASSERT_FALSE(owned_by[1].empty());
  for (const auto& line : owned_by)
    ASSERT_EQ(service::parse_response(conn.round_trip(line)).status,
              service::Response::Status::kOk);

  // Kill backend 0. The next request for its key must fail over to
  // backend 1 with NO client-visible error: the traffic path reports the
  // failure and the retry lands on the replica.
  b0.kill();
  const auto failed_over =
      service::parse_response(conn.round_trip(owned_by[0]));
  EXPECT_EQ(failed_over.status, service::Response::Status::kOk)
      << failed_over.error;
  EXPECT_GE(router.stats().failovers, 1u);
  EXPECT_EQ(router.stats().errors, 0u);

  // Health converges: probes mark the dead backend down, after which its
  // keys route straight to the replica with no per-request retry.
  router.health().probe_now();
  router.health().probe_now();
  EXPECT_FALSE(router.health().up(0));
  const std::uint64_t failovers_before = router.stats().failovers;
  const auto rerouted =
      service::parse_response(conn.round_trip(owned_by[0]));
  EXPECT_EQ(rerouted.status, service::Response::Status::kOk);
  EXPECT_TRUE(rerouted.cached);  // the replica computed it during failover
  EXPECT_EQ(router.stats().failovers, failovers_before);
  EXPECT_EQ(router.stats().errors, 0u);

  // The survivor still answers its own keys.
  EXPECT_EQ(service::parse_response(conn.round_trip(owned_by[1])).status,
            service::Response::Status::kOk);
}

TEST(ClusterSmoke, AllBackendsDownYieldsAnErrorNotAHang) {
  auto opts = router_options({dead_port()});
  opts.health.down_after = 1;
  LiveRouter router(opts);
  router.router.health().probe_now();
  EXPECT_EQ(router.router.health().up_count(), 0u);

  RawClient conn(router.port);
  const auto r = service::parse_response(
      conn.round_trip("equilibrium workload=water threads=4 fan=1"));
  EXPECT_EQ(r.status, service::Response::Status::kError);
  EXPECT_NE(r.error.find("no backend"), std::string::npos) << r.error;
  EXPECT_GE(router.router.stats().errors, 1u);
}

TEST(ClusterSmoke, HedgeFiresWhenThePrimaryStalls) {
  // Primary shard: accepts and never answers. Replica: a real server.
  // With a fixed 10ms hedge delay the router must answer from the replica
  // while the primary is still silent.
  SilentBackend stalled;
  LiveServer live;
  auto opts = router_options({stalled.port, live.port});
  opts.hedge_ms = 10.0;
  opts.health.interval_s = 30.0;   // keep probes out of the way
  opts.health.down_after = 1000;   // the stalled backend must stay "up"
  LiveRouter router(opts);

  // A request whose canonical key is owned by the stalled backend.
  std::string stalled_line;
  for (const auto& line : distinct_requests(32)) {
    const auto key =
        service::canonical_key(service::parse_request(line).request);
    if (router.router.shards().owner(key) == 0) {
      stalled_line = line;
      break;
    }
  }
  ASSERT_FALSE(stalled_line.empty());
  EXPECT_GT(router.router.current_hedge_delay_us(), 0.0);

  RawClient conn(router.port);
  const auto r = service::parse_response(conn.round_trip(stalled_line));
  EXPECT_EQ(r.status, service::Response::Status::kOk) << r.error;
  const auto rs = router.router.stats();
  EXPECT_GE(rs.hedges, 1u);
  EXPECT_GE(rs.hedge_wins, 1u);
  EXPECT_EQ(rs.errors, 0u);
}

TEST(ClusterSmoke, TcpEndToEndThroughTheRouter) {
  LiveServer b0, b1;
  LiveRouter router(router_options({b0.port, b1.port}));

  // Concurrent client sessions through the router's TCP front door, each
  // reusing the line protocol exactly as against a single tecfand.
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&router, c, &failures] {
      RawClient conn(router.port);
      for (int i = 0; i < 4; ++i) {
        const std::string reply = conn.round_trip(
            "equilibrium workload=water threads=4 fan=" +
            std::to_string((c + i) % 7));
        if (reply.rfind("ok", 0) != 0) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  EXPECT_GE(router.router.stats().requests, 12u);
  // The router's own per-stage histograms saw every routed request.
  bool saw_route = false;
  for (const auto& [name, snap] : router.router.metrics().histograms())
    if (name == "route") {
      saw_route = true;
      EXPECT_GE(snap.count, 12u);
    }
  EXPECT_TRUE(saw_route);
}

// ----------------------------------------------------------------- tracing

// Pull `"dur_us":<n>` out of the first span object matching `marker` in a
// trace-JSON dump; 0 when the marker or field is absent.
std::uint64_t span_duration_us(const std::string& json,
                               const std::string& marker) {
  const std::size_t at = json.find(marker);
  if (at == std::string::npos) return 0;
  const std::size_t close = json.find('}', at);
  const std::size_t dur = json.find("\"dur_us\":", at);
  if (dur == std::string::npos || dur > close) return 0;
  return std::stoull(json.substr(dur + 9));
}

// The cross-tier acceptance path: a routed miss with forced sampling must
// reassemble at the router as ONE trace carrying both tiers' spans —
// route and backend_wait from the router, e2e/cache_probe/queue_wait/
// compute folded in from the backend's reply — with durations that square
// with the router's own e2e_miss histogram.
TEST(ClusterSmoke, RoutedMissReassemblesAMultiTierTrace) {
  LiveServer b0, b1;
  auto opts = router_options({b0.port, b1.port});
  opts.trace_every = 1;
  LiveRouter live(opts);
  const cluster::Router& router = live.router;
  RawClient conn(live.port);

  const std::string reply =
      conn.round_trip("equilibrium workload=water threads=4 fan=1");
  const auto parsed = service::parse_response(reply);
  ASSERT_EQ(parsed.status, service::Response::Status::kOk) << reply;
  ASSERT_TRUE(parsed.field("trace")) << reply;

  const auto dump = service::parse_response(conn.round_trip("trace limit=4"));
  ASSERT_EQ(dump.status, service::Response::Status::kOk);
  EXPECT_EQ(dump.field("traces"), std::optional<std::string>("1"));
  const auto t0 = dump.field("t0");
  ASSERT_TRUE(t0);
  // Both tiers landed in one JSON object...
  EXPECT_NE(t0->find("\"tier\":\"router\""), std::string::npos) << *t0;
  EXPECT_NE(t0->find("\"tier\":\"tecfand\""), std::string::npos) << *t0;
  // ...with every stage span the routed miss path promises. (The
  // backend's serialize span closes after its reply is built, so it
  // stays in the backend's rings and is rightly absent here.)
  for (const char* name :
       {"\"name\":\"route\"", "\"name\":\"backend_wait\"",
        "\"name\":\"cache_probe\"", "\"name\":\"queue_wait\"",
        "\"name\":\"compute\""})
    EXPECT_NE(t0->find(name), std::string::npos) << name << " | " << *t0;

  // Durations are consistent: the root e2e span brackets the stages it
  // contains, and matches the e2e_miss histogram's only sample within
  // bucket slop (log buckets are ~19% wide; allow that plus scheduling
  // noise between the two clock reads).
  const std::uint64_t e2e = span_duration_us(*t0, "\"name\":\"e2e\"");
  const std::uint64_t wait =
      span_duration_us(*t0, "\"name\":\"backend_wait\"");
  const std::uint64_t compute = span_duration_us(*t0, "\"name\":\"compute\"");
  EXPECT_GT(e2e, 0u);
  EXPECT_GE(e2e, wait) << *t0;
  EXPECT_GE(wait, compute) << *t0;
  double miss_max_us = 0.0;
  for (const auto& [name, snap] : router.metrics().histograms())
    if (name == "e2e_miss") {
      EXPECT_EQ(snap.count, 1u);
      miss_max_us = snap.max_us;
    }
  ASSERT_GT(miss_max_us, 0.0);
  const double slop = 0.25 * miss_max_us + 500.0;
  EXPECT_NEAR(static_cast<double>(e2e), miss_max_us, slop) << *t0;

  // The rings drained: nothing left open on either tier.
  EXPECT_EQ(router.tracer().open_spans(), 0);
  EXPECT_EQ(b0.server->tracer().open_spans(), 0);
  EXPECT_EQ(b1.server->tracer().open_spans(), 0);
  // The backend participated as an adopter, not a second head.
  EXPECT_EQ(router.tracer().sampled_traces(), 1u);
  EXPECT_EQ(b0.server->tracer().sampled_traces() +
                b1.server->tracer().sampled_traces(),
            0u);
  EXPECT_EQ(b0.server->tracer().adopted_traces() +
                b1.server->tracer().adopted_traces(),
            1u);
}

TEST(ClusterSmoke, RouterStatsAndPromExpositionCarryIdentity) {
  LiveServer b0, b1;
  LiveRouter router(router_options({b0.port, b1.port}));
  RawClient conn(router.port);
  conn.round_trip("equilibrium workload=water threads=4 fan=1");

  const auto stats = service::parse_response(conn.round_trip("stats"));
  ASSERT_EQ(stats.status, service::Response::Status::kOk);
  EXPECT_TRUE(stats.field("build"));
  EXPECT_TRUE(stats.field("uptime_s"));
  EXPECT_TRUE(stats.field("traces_sampled"));
  EXPECT_TRUE(stats.field("traces_adopted"));

  // Same exposition contract as tecfand's: raw text, tecfan_ families,
  // terminated by the EOF marker (the protocol's one multi-line reply).
  ASSERT_TRUE(conn.send_lines({"metrics prom"}));
  std::string prom;
  while (const auto line = conn.read_line()) {
    prom += *line;
    if (*line == "# EOF") break;
    prom += '\n';
  }
  EXPECT_NE(prom.find("# TYPE tecfan_routed_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("tecfan_e2e_miss_latency_us_count 1"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
  ASSERT_GE(prom.size(), 5u);
  EXPECT_EQ(prom.substr(prom.size() - 5), "# EOF");
}

// -------------------------------------------------------------- event loop

TEST(EventLoop, TimersFireInDueOrderAndCancelsAreHonored) {
  cluster::EventLoop loop;
  std::vector<int> fired;
  const auto now = cluster::EventLoop::Clock::now();
  const auto cancelled =
      loop.add_timer(now + 5ms, [&fired] { fired.push_back(99); });
  loop.add_timer(now + 30ms, [&fired, &loop] {
    fired.push_back(2);
    loop.stop();
  });
  loop.add_timer(now + 15ms, [&fired] { fired.push_back(1); });
  loop.cancel_timer(cancelled);
  loop.cancel_timer(0);  // the "no timer" id is ignored
  loop.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], 1);  // due-time order, not registration order
  EXPECT_EQ(fired[1], 2);
}

TEST(EventLoop, DispatchesFdEventsAndStopsFromAnotherThread) {
  cluster::EventLoop loop;
  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);
  ASSERT_TRUE(service::set_nonblocking(pipefd[0]));

  int hits = 0;
  loop.add_fd(pipefd[0], EPOLLIN, [&](std::uint32_t) {
    char buf[16];
    while (::read(pipefd[0], buf, sizeof(buf)) > 0) {
    }
    ++hits;
    // A handler may remove its own registration mid-batch; later writes
    // must not be dispatched to it.
    loop.remove_fd(pipefd[0]);
  });

  std::thread side([&] {
    std::this_thread::sleep_for(5ms);
    ASSERT_EQ(::write(pipefd[1], "x", 1), 1);
    std::this_thread::sleep_for(20ms);
    ASSERT_EQ(::write(pipefd[1], "y", 1), 1);  // nobody is watching now
    std::this_thread::sleep_for(20ms);
    loop.stop();  // cross-thread stop via the eventfd
  });
  loop.run();
  side.join();
  EXPECT_EQ(hits, 1);
  ::close(pipefd[0]);
  ::close(pipefd[1]);
}

// -------------------------------------------------- pipelined data plane

/// Request lines whose canonical key the ShardMap assigns to `backend`,
/// drawn from the 4-thread workload x fan x dvfs grid the 2x2-tile test
/// servers accept.
std::vector<std::string> lines_owned_by(const cluster::Router& router,
                                        std::size_t backend, std::size_t n) {
  std::vector<std::string> owned;
  for (const char* wl : {"water", "cholesky", "lu", "fmm"})
    for (int fan = 0; fan < 8; ++fan)
      for (int dvfs = 0; dvfs < 4; ++dvfs) {
        const std::string line = "equilibrium workload=" + std::string(wl) +
                                 " threads=4 fan=" + std::to_string(fan) +
                                 " dvfs=" + std::to_string(dvfs);
        const auto key =
            service::canonical_key(service::parse_request(line).request);
        if (router.shards().owner(key) == backend) owned.push_back(line);
        if (owned.size() == n) return owned;
      }
  return owned;
}

TEST(RouterPipeline, InterleavedResponsesMapToTheRightClients) {
  // Three clients pipeline distinct request slices through the epoll
  // plane at once; the keys shard across both backends, so completions
  // arrive out of request order and the per-session reorder buffer must
  // put them back. One client reads slowly to stretch the interleaving.
  LiveServer b0, b1;
  LiveRouter router(router_options({b0.port, b1.port}));

  const auto all = distinct_requests(48);
  constexpr std::size_t kPerClient = 16;
  std::vector<std::vector<std::string>> got(3);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      const std::vector<std::string> mine(
          all.begin() + static_cast<std::ptrdiff_t>(c * kPerClient),
          all.begin() + static_cast<std::ptrdiff_t>((c + 1) * kPerClient));
      RawClient conn(router.port);
      ASSERT_TRUE(conn.send_lines(mine));  // the whole slice in one burst
      for (std::size_t i = 0; i < mine.size(); ++i) {
        if (c == 0 && i % 4 == 0) std::this_thread::sleep_for(2ms);
        const auto reply = conn.read_line();
        ASSERT_TRUE(reply) << "client " << c << " reply " << i;
        got[c].push_back(*reply);
      }
    });
  }
  for (auto& t : clients) t.join();

  // Every client got its own slice's replies, in its own request order,
  // byte-identical to a direct server answering the same (miss) request.
  service::Server direct(small_server_options());
  for (std::size_t c = 0; c < 3; ++c) {
    ASSERT_EQ(got[c].size(), kPerClient);
    for (std::size_t i = 0; i < kPerClient; ++i) {
      bool quit = false;
      EXPECT_EQ(got[c][i],
                direct.handle_line(all[c * kPerClient + i], &quit))
          << "client " << c << " line " << i;
    }
  }
  EXPECT_EQ(router.router.stats().errors, 0u);
}

TEST(RouterPipeline, BackendDeathFailsInFlightOverTheRing) {
  // Backend 0 accepts, reads, and never replies; backend 1 is real. A
  // client pipelines k requests owned by backend 0, so all k sit in that
  // pipe's in-flight FIFO when the connection is hard-stopped. The router
  // must fail every descriptor over the ring to backend 1 with zero
  // client-visible errors and no cross-wired responses.
  ScriptedBackend dying({});  // empty script: never answers anything
  LiveServer survivor;
  auto opts = router_options({dying.port, survivor.port});
  opts.health.interval_s = 30.0;   // keep probes out of the way
  opts.health.down_after = 1000;   // the silent backend must stay "up"
  LiveRouter router(opts);

  const auto owned = lines_owned_by(router.router, 0, 8);
  ASSERT_GE(owned.size(), 4u);

  RawClient conn(router.port);
  ASSERT_TRUE(conn.send_lines(owned));
  std::this_thread::sleep_for(50ms);  // let all k reach the pipe's FIFO
  dying.close_conns();                // the backend dies with k in flight

  std::vector<std::string> replies;
  for (std::size_t i = 0; i < owned.size(); ++i) {
    const auto reply = conn.read_line();
    ASSERT_TRUE(reply) << "reply " << i;
    replies.push_back(*reply);
  }

  // Zero client-visible errors, and each reply matches the right request:
  // compare solver fields against a direct reference server per line.
  service::Server direct(small_server_options());
  for (std::size_t i = 0; i < owned.size(); ++i) {
    const auto parsed = service::parse_response(replies[i]);
    ASSERT_EQ(parsed.status, service::Response::Status::kOk) << replies[i];
    const auto ref =
        direct.handle(service::parse_request(owned[i]).request);
    EXPECT_EQ(parsed.field("peak_t_c"), ref.field("peak_t_c")) << owned[i];
    EXPECT_EQ(parsed.field("energy_j"), ref.field("energy_j")) << owned[i];
  }
  const auto rs = router.router.stats();
  EXPECT_EQ(rs.errors, 0u);
  EXPECT_EQ(rs.failovers, owned.size());
}

TEST(RouterPipeline, MalformedMidPipelineResponseAbandonsTheConnection) {
  // Backend 0 answers the first request on each connection with a valid
  // line, then emits garbage. The garbage cannot be paired with any
  // in-flight descriptor safely, so the router must abandon the whole
  // connection, fail the remaining FIFO over to backend 1, and redial
  // backend 0 fresh for later requests.
  const std::string scripted_ok = "ok scripted=1 peak_t_c=1.0";
  ScriptedBackend liar({scripted_ok, "%% this is not a protocol line %%"});
  LiveServer honest;
  auto opts = router_options({liar.port, honest.port});
  opts.health.interval_s = 30.0;
  opts.health.down_after = 1000;  // keep the liar routable for the redial
  LiveRouter router(opts);

  const auto owned = lines_owned_by(router.router, 0, 4);
  ASSERT_EQ(owned.size(), 4u);
  const std::vector<std::string> burst(owned.begin(), owned.begin() + 3);

  RawClient conn(router.port);
  ASSERT_TRUE(conn.send_lines(burst));
  const auto first = conn.read_line();
  ASSERT_TRUE(first);
  EXPECT_EQ(*first, scripted_ok);  // forwarded verbatim from the script
  for (int i = 0; i < 2; ++i) {
    // Requests 2 and 3 were in flight behind the garbage: both must come
    // back as real computed replies from the failover backend.
    const auto reply = conn.read_line();
    ASSERT_TRUE(reply);
    EXPECT_EQ(service::parse_response(*reply).status,
              service::Response::Status::kOk)
        << *reply;
    EXPECT_EQ(reply->find("scripted"), std::string::npos);
  }

  // The poisoned connection was abandoned: the next request to backend 0
  // runs on a fresh dial, where the per-connection script starts over.
  ASSERT_TRUE(conn.send_lines({owned[3]}));
  const auto redialed = conn.read_line();
  ASSERT_TRUE(redialed);
  EXPECT_EQ(*redialed, scripted_ok);

  const auto rs = router.router.stats();
  EXPECT_EQ(rs.errors, 0u);
  EXPECT_EQ(rs.failovers, 2u);
}

// ------------------------------------------------- data-plane equivalence

TEST(DataPlaneEquivalence, ByteIdenticalResponseStreams) {
  // The router's data plane must be invisible in the bytes: drive a
  // 2-backend fleet with a pipelined request sequence (miss pass + hit
  // pass) and the response stream must match, line for line and cached
  // flags included, a direct Server answering the same sequence in order.
  const auto lines = distinct_requests(10);
  std::vector<std::string> sequence(lines.begin(), lines.end());
  sequence.insert(sequence.end(), lines.begin(), lines.end());

  LiveServer b0, b1;
  LiveRouter router(router_options({b0.port, b1.port}));
  RawClient conn(router.port);
  ASSERT_TRUE(conn.send_lines(sequence));
  std::vector<std::string> stream;
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    const auto reply = conn.read_line();
    ASSERT_TRUE(reply) << "reply " << i;
    stream.push_back(*reply);
  }

  service::Server direct(small_server_options());
  std::vector<std::string> reference;
  for (const auto& line : sequence) {
    bool quit = false;
    reference.push_back(direct.handle_line(line, &quit));
  }
  EXPECT_EQ(stream, reference);
  EXPECT_EQ(router.router.stats().errors, 0u);
}

// --------------------------------------------- bounded health-probe dials

TEST(HealthMonitor, ProbeOfABlackholedBackendIsBoundedByTheDialTimeout) {
  // A listener with a saturated accept backlog silently drops further
  // SYNs, so a blocking connect() would sit in kernel retries for
  // minutes. The probe's nonblocking dial must give up at its deadline
  // instead, keeping the probe sweep prompt for the *other* backends.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(
      ::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
      0);
  ASSERT_EQ(::listen(listen_fd, 0), 0);  // minimal backlog, never accepted
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len),
      0);
  const std::uint16_t port = ntohs(addr.sin_port);
  std::vector<int> fillers;
  for (int i = 0; i < 4; ++i) {
    const int fd = service::connect_loopback(
        port, std::chrono::steady_clock::now() + 50ms);
    if (fd >= 0) fillers.push_back(fd);
  }

  cluster::HealthMonitor::Options opts;
  opts.interval_s = 30.0;
  opts.ping_timeout_ms = 150.0;  // bounds the dial and the ping together
  cluster::HealthMonitor monitor({port}, opts);

  const auto t0 = std::chrono::steady_clock::now();
  monitor.probe_now();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // Whether the dial timed out in the SYN queue or the ping timed out
  // unanswered, the probe is bounded by its deadlines — seconds would
  // mean we fell back into the kernel's connect timeout.
  EXPECT_LT(elapsed_s, 2.0);
  EXPECT_GE(monitor.health(0).probe_failures, 1u);

  for (const int fd : fillers) ::close(fd);
  ::close(listen_fd);
}

TEST(HealthMonitor, GarbagePingReplyFailsTheProbe) {
  // The backend accepts and answers, but not with a protocol reply: a
  // probe must count that as a failure, and down_after of them mark the
  // backend down.
  ScriptedBackend liar({"%% this is not a protocol line %%"});
  cluster::HealthMonitor::Options opts;
  opts.down_after = 2;
  opts.ping_timeout_ms = 500.0;
  cluster::HealthMonitor monitor({liar.port}, opts);

  monitor.probe_now();  // not started: probes on this thread
  EXPECT_EQ(monitor.health(0).probe_failures, 1u);
  EXPECT_TRUE(monitor.up(0));  // one failure is not a markdown
  monitor.probe_now();
  EXPECT_EQ(monitor.health(0).probe_failures, 2u);
  EXPECT_FALSE(monitor.up(0));
  EXPECT_EQ(monitor.health(0).markdowns, 1u);
}

// ------------------------------------------- health: probe/traffic races

// Regression: a probe that started before a markdown could come back `ok`
// after traffic discovered the backend dead, and resurrected it with
// stale evidence. finish_probe must discard any result whose epoch token
// predates the markdown.
TEST(HealthMonitor, StaleProbeResultCannotResurrectAMarkedDownBackend) {
  cluster::HealthMonitor::Options opts;
  opts.down_after = 2;
  cluster::HealthMonitor monitor({dead_port()}, opts);

  // A probe is in flight...
  const auto token = monitor.begin_probe(0);
  // ...when traffic discovers the backend is dead.
  monitor.report_failure(0);
  monitor.report_failure(0);
  ASSERT_FALSE(monitor.up(0));

  // The probe's `ok` lands late: its evidence predates the markdown.
  monitor.finish_probe(0, /*ok=*/true, token);
  EXPECT_FALSE(monitor.up(0));
  EXPECT_EQ(monitor.health(0).stale_probes, 1u);

  // A probe begun under the current epoch may resurrect it.
  const auto fresh = monitor.begin_probe(0);
  monitor.finish_probe(0, /*ok=*/true, fresh);
  EXPECT_TRUE(monitor.up(0));
}

TEST(HealthMonitor, ConcurrentTrafficReportsAndProbesConverge) {
  // TSan coverage for the epoch handshake: traffic reports hammer a
  // backend from several threads while the probe loop runs full-tilt.
  // No assertion beyond convergence — the value is the race detector.
  LiveServer live;
  cluster::HealthMonitor::Options opts;
  opts.interval_s = 0.005;
  opts.down_after = 2;
  opts.ping_timeout_ms = 500.0;
  cluster::HealthMonitor monitor({live.port}, opts);
  monitor.start();

  std::vector<std::thread> reporters;
  for (int t = 0; t < 4; ++t)
    reporters.emplace_back([&monitor, t] {
      for (int i = 0; i < 1000; ++i) {
        if ((i + t) % 3 == 0)
          monitor.report_failure(0);
        else
          monitor.report_success(0);
      }
    });
  for (int i = 0; i < 10; ++i) monitor.probe_now();
  for (auto& t : reporters) t.join();
  monitor.stop();

  // The backend is actually alive; once the flapping stops one success
  // observation settles the state.
  monitor.report_success(0);
  EXPECT_TRUE(monitor.up(0));
}

// ------------------------------------- pipeline: FIFO reclamation paths

// Regression: a pipe whose backend accepted the forwards and then never
// answered (and no per-request deadline to bail us out) kept its FIFO
// entries forever — clients hung and the pipe never failed over. The
// stall watchdog now tears the pipe down and fails the whole FIFO over.
TEST(RouterPipeline, StallWatchdogReclaimsABlackholedPipe) {
  SilentBackend blackhole;
  LiveServer live;
  auto opts = router_options({blackhole.port, live.port});
  opts.backend_deadline_ms = 0.0;  // no deadline: the watchdog is the
  opts.pipe_stall_ms = 300.0;      // only way out
  opts.stall_grace_ms = 100.0;
  LiveRouter router(opts);

  const auto mine = lines_owned_by(router.router, 0, 6);
  ASSERT_GE(mine.size(), 2u);
  RawClient conn(router.port);
  ASSERT_TRUE(conn.send_lines(mine));
  for (std::size_t i = 0; i < mine.size(); ++i) {
    const auto reply = conn.read_line(10s);
    ASSERT_TRUE(reply) << "reply " << i << " never arrived";
    EXPECT_EQ(service::parse_response(*reply).status,
              service::Response::Status::kOk)
        << *reply;
  }
  const auto rs = router.router.stats();
  EXPECT_GE(rs.pipe_stalls, 1u);
  EXPECT_GE(rs.failovers, 1u);
  // Leak gauges: everything the watchdog reclaimed must be accounted.
  for (int i = 0; i < 500 && (router.router.stats().pending != 0 ||
                              router.router.stats().backend_inflight != 0);
       ++i)
    std::this_thread::sleep_for(10ms);
  EXPECT_EQ(router.router.stats().pending, 0u);
  EXPECT_EQ(router.router.stats().backend_inflight, 0u);
}

// Regression: when a hedge won, the loser's FIFO entry on the slow pipe
// stayed in flight forever (the pipe was healthy enough to dial, just
// never answered). The entry must be reclaimed — here by the watchdog
// tearing down the silent pipe — and the gauges must drain to zero.
TEST(RouterPipeline, HedgeWinLeavesNoLeakedFifoEntries) {
  SilentBackend blackhole;
  LiveServer live;
  auto opts = router_options({blackhole.port, live.port});
  opts.hedge_ms = 50.0;        // hedge answers the client fast...
  opts.pipe_stall_ms = 1000.0; // ...the watchdog reclaims the loser
  opts.stall_grace_ms = 100.0;
  LiveRouter router(opts);

  const auto mine = lines_owned_by(router.router, 0, 4);
  ASSERT_GE(mine.size(), 2u);
  RawClient conn(router.port);
  ASSERT_TRUE(conn.send_lines(mine));
  for (std::size_t i = 0; i < mine.size(); ++i) {
    const auto reply = conn.read_line(10s);
    ASSERT_TRUE(reply) << "reply " << i << " never arrived";
    EXPECT_EQ(service::parse_response(*reply).status,
              service::Response::Status::kOk)
        << *reply;
  }
  const auto rs = router.router.stats();
  EXPECT_GE(rs.hedges, 1u);
  EXPECT_GE(rs.hedge_wins, 1u);
  for (int i = 0; i < 500 && (router.router.stats().pending != 0 ||
                              router.router.stats().backend_inflight != 0);
       ++i)
    std::this_thread::sleep_for(10ms);
  EXPECT_EQ(router.router.stats().pending, 0u);
  EXPECT_EQ(router.router.stats().backend_inflight, 0u);
  EXPECT_GE(router.router.stats().pipe_stalls, 1u);
}

}  // namespace
