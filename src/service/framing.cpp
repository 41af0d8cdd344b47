#include "service/framing.h"

#include "service/fault_injection.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>

#include "util/error.h"

namespace tecfan::service {
namespace {

using Clock = std::chrono::steady_clock;

/// Remaining milliseconds until `deadline` for poll(): -1 = no deadline,
/// 0 = already past (poll returns immediately).
int poll_timeout_ms(Clock::time_point deadline) {
  if (deadline == Clock::time_point::max()) return -1;
  const auto remaining = deadline - Clock::now();
  if (remaining <= Clock::duration::zero()) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
          .count();
  // Round up so a sub-millisecond remainder still waits one tick instead
  // of spinning.
  return static_cast<int>(ms) + 1;
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

/// Consult the injector before a dial. True = proceed; false = the dial
/// is refused (errno set).
bool connect_permitted(std::uint16_t port) {
  FaultInjector* fi = active_fault_injector();
  if (!fi) return true;
  const FaultDecision d = settle_fault_delay(fi->on_connect(port));
  if (d.kind == FaultDecision::Kind::kFail ||
      d.kind == FaultDecision::Kind::kEof) {
    errno = d.error != 0 ? d.error : ECONNREFUSED;
    return false;
  }
  return true;
}

}  // namespace

void ignore_sigpipe() { ::signal(SIGPIPE, SIG_IGN); }

void set_tcp_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool set_nonblocking(int fd, bool nonblocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int next = nonblocking ? (flags | O_NONBLOCK)
                               : (flags & ~O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, next) == 0;
}

Listener listen_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    throw precondition_error(std::string("socket() failed: ") +
                             std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback_addr(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    throw precondition_error(std::string("cannot listen on port ") +
                             std::to_string(port) + ": " +
                             std::strerror(err));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  return {fd, ntohs(addr.sin_port)};
}

int connect_loopback(std::uint16_t port) {
  if (!connect_permitted(port)) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const sockaddr_in addr = loopback_addr(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  set_tcp_nodelay(fd);
  return fd;
}

int connect_loopback(std::uint16_t port, Clock::time_point deadline) {
  if (!connect_permitted(port)) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (!set_nonblocking(fd)) {
    ::close(fd);
    return -1;
  }
  const sockaddr_in addr = loopback_addr(port);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return -1;
    }
    // Wait for the three-way handshake (or a refusal) until the deadline.
    for (;;) {
      pollfd pfd{fd, POLLOUT, 0};
      const int prc = ::poll(&pfd, 1, poll_timeout_ms(deadline));
      if (prc > 0) break;
      if (prc == 0 || errno != EINTR) {  // deadline or poll error
        ::close(fd);
        return -1;
      }
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      ::close(fd);
      return -1;
    }
  }
  if (!set_nonblocking(fd, false)) {
    ::close(fd);
    return -1;
  }
  set_tcp_nodelay(fd);
  return fd;
}

bool send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    std::size_t attempt = data.size() - sent;
    if (FaultInjector* fi = active_fault_injector()) {
      const FaultDecision d = settle_fault_delay(fi->on_send(fd, attempt));
      if (d.kind == FaultDecision::Kind::kFail ||
          d.kind == FaultDecision::Kind::kEof) {
        errno = d.error != 0 ? d.error : ECONNRESET;
        return false;
      }
      if (d.kind == FaultDecision::Kind::kShort && d.cap > 0)
        attempt = std::min(attempt, d.cap);
    }
    const ssize_t w = ::send(fd, data.data() + sent, attempt, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (w == 0) return false;
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

bool wait_readable(int fd, Clock::time_point deadline) {
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, poll_timeout_ms(deadline));
    if (rc > 0) return (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
    if (rc == 0) return false;  // deadline
    if (errno != EINTR) return false;
  }
}

bool LineReader::has_line() const {
  return !overflowed_ && acc_.find('\n') != std::string::npos;
}

void LineReader::check_overflow() {
  if (overflowed_ || acc_.size() <= max_line_) return;
  const std::size_t nl = acc_.find('\n');
  if (nl == std::string::npos || nl > max_line_) overflowed_ = true;
}

std::optional<std::string> LineReader::pop_line() {
  if (overflowed_) return std::nullopt;
  const std::size_t nl = acc_.find('\n');
  if (nl == std::string::npos) {
    // An unterminated prefix past the cap can never become a legal line.
    if (acc_.size() > max_line_) overflowed_ = true;
    return std::nullopt;
  }
  if (nl > max_line_) {
    // A terminated line past the cap is just as over-long; refusing it
    // here (rather than only in append) catches lines that became the
    // buffer head after earlier pops.
    overflowed_ = true;
    return std::nullopt;
  }
  std::string line = acc_.substr(0, nl);
  acc_.erase(0, nl + 1);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return line;
}

std::optional<std::string> LineReader::read_line(Clock::time_point deadline) {
  for (;;) {
    if (auto line = pop_line()) return line;
    if (overflowed_) return std::nullopt;
    if (fd_ < 0) return std::nullopt;
    if (!wait_readable(fd_, deadline)) return std::nullopt;
    char buf[4096];
    const ssize_t n = faulted_recv(fd_, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    if (n == 0) return std::nullopt;  // peer closed
    append({buf, static_cast<std::size_t>(n)});
  }
}

void shutdown_drain(int fd, std::chrono::milliseconds budget) {
  ::shutdown(fd, SHUT_WR);
  const auto deadline = Clock::now() + budget;
  char sink[4096];
  while (wait_readable(fd, deadline)) {
    const ssize_t n = ::recv(fd, sink, sizeof(sink), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed (or errored) — drained
  }
}

void WriteQueue::push(std::string chunk) {
  if (chunk.empty()) return;
  bytes_ += chunk.size();
  chunks_.push_back(std::move(chunk));
}

WriteQueue::FlushResult WriteQueue::flush(int fd) {
  while (!chunks_.empty()) {
    iovec iov[kMaxIov];
    std::size_t n = 0;
    std::size_t total = 0;
    for (auto it = chunks_.begin(); it != chunks_.end() && n < kMaxIov;
         ++it, ++n) {
      const std::size_t skip = n == 0 ? front_offset_ : 0;
      iov[n].iov_base = const_cast<char*>(it->data()) + skip;
      iov[n].iov_len = it->size() - skip;
      total += iov[n].iov_len;
    }
    if (FaultInjector* fi = active_fault_injector()) {
      const FaultDecision d = settle_fault_delay(fi->on_send(fd, total));
      if (d.kind == FaultDecision::Kind::kFail ||
          d.kind == FaultDecision::Kind::kEof) {
        return FlushResult::kError;
      }
      if (d.kind == FaultDecision::Kind::kShort && d.cap > 0 &&
          d.cap < total) {
        // Trim the gather list so the kernel sees at most `cap` bytes —
        // exactly the short-write shape a full socket buffer produces.
        std::size_t budget = d.cap;
        std::size_t m = 0;
        while (budget > 0) {
          if (iov[m].iov_len > budget) {
            iov[m].iov_len = budget;
            budget = 0;
          } else {
            budget -= iov[m].iov_len;
          }
          ++m;
        }
        n = m;
      }
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n;
    ssize_t w;
    // sendmsg rather than writev: MSG_NOSIGNAL turns a peer that vanished
    // mid-flush into an error return instead of SIGPIPE.
    do {
      w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    } while (w < 0 && errno == EINTR);
    if (w < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return FlushResult::kBlocked;
      return FlushResult::kError;
    }
    // A zero-byte sendmsg on a nonempty gather list should be impossible
    // for TCP, but looping on it would spin forever; treat it as blocked.
    if (w == 0) return FlushResult::kBlocked;
    bytes_ -= static_cast<std::size_t>(w);
    std::size_t written = static_cast<std::size_t>(w);
    while (written > 0) {
      const std::size_t remaining = chunks_.front().size() - front_offset_;
      if (written >= remaining) {
        written -= remaining;
        front_offset_ = 0;
        chunks_.pop_front();
      } else {
        front_offset_ += written;
        written = 0;
      }
    }
  }
  return FlushResult::kDrained;
}

void WriteQueue::clear() {
  chunks_.clear();
  front_offset_ = 0;
  bytes_ = 0;
}

}  // namespace tecfan::service
