#include "testing/chaos_proxy.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <string>

#include "service/framing.h"
#include "util/error.h"

namespace tecfan::testing {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void sleep_us(std::uint32_t us) {
  if (us) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

/// Send the whole buffer in chunks of at most `cap` bytes (0 = no cap).
/// Plain blocking sends, MSG_NOSIGNAL; false when the peer is gone.
bool send_capped(int fd, std::string_view data, std::size_t cap) {
  while (!data.empty()) {
    const std::size_t n = cap ? std::min(cap, data.size()) : data.size();
    if (!service::send_all(fd, data.substr(0, n))) return false;
    data.remove_prefix(n);
  }
  return true;
}

// Deliberately not a protocol status line: the router must detect these
// as corruption, never deliver them. (An unsolicited line that *looked*
// valid would be undetectable — see the fault-model note in the header.)
constexpr const char* kGarbageLine = "@@chaos garbage not-a-protocol-line##";

}  // namespace

double ChaosProxy::Rng::next_unit() {
  state = splitmix64(state);
  return static_cast<double>(state >> 11) * 0x1.0p-53;
}

ChaosProxy::ChaosProxy(ChaosProxyOptions options) : options_(options) {
  TECFAN_REQUIRE(options_.target_port != 0, "ChaosProxy needs a target port");
  const service::Listener listener =
      service::listen_loopback(options_.listen_port);
  listen_fd_ = listener.fd;
  port_ = listener.port;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

ChaosProxy::~ChaosProxy() { stop(); }

void ChaosProxy::stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  ::shutdown(listen_fd_, SHUT_RDWR);
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
    threads.swap(threads_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& t : threads)
    if (t.joinable()) t.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const int fd : live_fds_) ::close(fd);
    live_fds_.clear();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

ChaosProxy::Stats ChaosProxy::stats() const {
  Stats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.refused = refused_.load(std::memory_order_relaxed);
  s.blackholed = blackholed_.load(std::memory_order_relaxed);
  s.request_disconnects = request_disconnects_.load(std::memory_order_relaxed);
  s.reply_disconnects = reply_disconnects_.load(std::memory_order_relaxed);
  s.corrupted = corrupted_.load(std::memory_order_relaxed);
  s.truncated = truncated_.load(std::memory_order_relaxed);
  s.unsolicited = unsolicited_.load(std::memory_order_relaxed);
  s.slowloris_lines = slowloris_lines_.load(std::memory_order_relaxed);
  s.delays = delays_.load(std::memory_order_relaxed);
  s.lines_forwarded = lines_forwarded_.load(std::memory_order_relaxed);
  return s;
}

bool ChaosProxy::track_fd(int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_.load()) return false;
  live_fds_.push_back(fd);
  return true;
}

void ChaosProxy::shutdown_fd_pair(int a, int b) {
  if (a >= 0) ::shutdown(a, SHUT_RDWR);
  if (b >= 0) ::shutdown(b, SHUT_RDWR);
}

void ChaosProxy::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) break;  // listen socket shut down by stop()
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    const std::uint64_t conn_index =
        connections_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    live_fds_.push_back(fd);
    threads_.emplace_back(
        [this, fd, conn_index] { serve_connection(fd, conn_index); });
  }
}

void ChaosProxy::serve_connection(int client_fd, std::uint64_t conn_index) {
  service::set_tcp_nodelay(client_fd);
  // Accept-time decisions use a dedicated stream so the per-leg streams
  // stay aligned whether or not a connection-level fault fired.
  Rng accept_rng{splitmix64(options_.seed ^ (conn_index * 3 + 1))};
  if (accept_rng.next_unit() < options_.refuse_p) {
    refused_.fetch_add(1, std::memory_order_relaxed);
    ::shutdown(client_fd, SHUT_RDWR);
    return;  // fd closed by stop(); tracked in accept_loop
  }
  if (accept_rng.next_unit() < options_.blackhole_p) {
    blackholed_.fetch_add(1, std::memory_order_relaxed);
    char sink[4096];
    while (::recv(client_fd, sink, sizeof(sink), 0) > 0) {
    }
    return;
  }

  const int backend_fd = service::connect_loopback(options_.target_port);
  if (backend_fd < 0) {
    ::shutdown(client_fd, SHUT_RDWR);
    return;
  }
  if (!track_fd(backend_fd)) {
    ::close(backend_fd);
    ::shutdown(client_fd, SHUT_RDWR);
    return;
  }

  std::thread pump([this, backend_fd, client_fd, conn_index] {
    reply_pump(backend_fd, client_fd, conn_index);
  });

  // Request leg: raw byte pump client -> backend.
  Rng rng{splitmix64(options_.seed ^ (conn_index * 3 + 2))};
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(client_fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    if (options_.request_delay_p > 0.0 &&
        rng.next_unit() < options_.request_delay_p) {
      delays_.fetch_add(1, std::memory_order_relaxed);
      sleep_us(options_.request_delay_us);
    }
    if (options_.request_disconnect_p > 0.0 &&
        rng.next_unit() < options_.request_disconnect_p) {
      request_disconnects_.fetch_add(1, std::memory_order_relaxed);
      shutdown_fd_pair(client_fd, backend_fd);
      break;
    }
    if (!send_capped(backend_fd, std::string_view(buf, std::size_t(n)),
                     options_.short_write_cap))
      break;
  }
  // Client side is done sending: let the backend see EOF so in-flight
  // replies still drain through the pump, then wait for it.
  ::shutdown(backend_fd, SHUT_WR);
  pump.join();
  shutdown_fd_pair(client_fd, backend_fd);
}

void ChaosProxy::reply_pump(int backend_fd, int client_fd,
                            std::uint64_t conn_index) {
  Rng rng{splitmix64(options_.seed ^ (conn_index * 3 + 3))};
  service::LineReader reader(backend_fd);
  while (auto line = reader.read_line()) {
    if (options_.reply_delay_p > 0.0 &&
        rng.next_unit() < options_.reply_delay_p) {
      delays_.fetch_add(1, std::memory_order_relaxed);
      sleep_us(options_.reply_delay_us);
    }
    if (options_.reply_disconnect_p > 0.0 &&
        rng.next_unit() < options_.reply_disconnect_p) {
      reply_disconnects_.fetch_add(1, std::memory_order_relaxed);
      shutdown_fd_pair(client_fd, backend_fd);
      return;
    }
    if (options_.unsolicited_p > 0.0 &&
        rng.next_unit() < options_.unsolicited_p) {
      unsolicited_.fetch_add(1, std::memory_order_relaxed);
      if (!service::send_all(client_fd, std::string(kGarbageLine) + "\n"))
        return;
    }
    if (options_.corrupt_p > 0.0 && rng.next_unit() < options_.corrupt_p) {
      corrupted_.fetch_add(1, std::memory_order_relaxed);
      if (!service::send_all(client_fd, std::string(kGarbageLine) + "\n"))
        return;
      continue;  // the real line is dropped: the pairing is already broken
    }
    if (options_.truncate_p > 0.0 && rng.next_unit() < options_.truncate_p) {
      truncated_.fetch_add(1, std::memory_order_relaxed);
      const std::size_t keep = std::max<std::size_t>(1, line->size() / 2);
      service::send_all(client_fd, std::string_view(*line).substr(0, keep));
      shutdown_fd_pair(client_fd, backend_fd);
      return;
    }
    if (options_.slowloris_p > 0.0 &&
        rng.next_unit() < options_.slowloris_p) {
      slowloris_lines_.fetch_add(1, std::memory_order_relaxed);
      const std::string wire = *line + "\n";
      for (const char c : wire) {
        if (!service::send_all(client_fd, std::string_view(&c, 1))) return;
        sleep_us(options_.slowloris_delay_us);
      }
      lines_forwarded_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (!service::send_all(client_fd, *line + "\n")) return;
    lines_forwarded_.fetch_add(1, std::memory_order_relaxed);
  }
  // Backend EOF (or an over-long line): nothing more to forward; make the
  // client see EOF too so the router tears the pipe down.
  ::shutdown(client_fd, SHUT_RDWR);
}

}  // namespace tecfan::testing
