// Socket framing helpers for the line protocol, shared by the daemon
// shell's listener (service/daemon.h), tecfand's session threads
// (service::Server), the router's data plane and health probes
// (src/cluster/), and the tools (loadgen, tracecat, the chaos harness).
//
// Everything here is loopback-TCP plumbing for "one request line in, one
// response line out": listen, connect, send a whole buffer, and
// incrementally split received bytes into lines. All writes use
// MSG_NOSIGNAL so a peer that disappears mid-response surfaces as an EPIPE
// error return instead of a process-killing SIGPIPE; daemon mains
// additionally call ignore_sigpipe() to cover any stray write paths.
//
// Two usage styles coexist:
//
//   * Blocking (one request in flight per connection): connect_loopback +
//     send_all + LineReader::read_line. Used by the tools, the router's
//     health probes (one bounded dial + `ping` per probe), and tecfand's
//     thread-per-session loops.
//   * Nonblocking (event-driven state machines): set_nonblocking +
//     LineReader::append/pop_line to consume externally-recv()ed bytes,
//     and WriteQueue to coalesce small response writes into one writev()
//     per event-loop iteration. Used by the router's epoll data plane.
//
// Every connected socket gets TCP_NODELAY: the protocol is small
// request/response lines, so Nagle coalescing only adds latency — batching
// is done explicitly (WriteQueue) where it helps.
//
// All of the syscalls here route through the fault-injection hook
// (service/fault_injection.h): a no-op atomic-load-and-branch unless a
// chaos test installed an injector, which can then refuse dials, shorten
// or fail sends, dribble or cut recvs, and add latency deterministically.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>

namespace tecfan::service {

/// Process-wide SIGPIPE -> SIG_IGN (idempotent). Call from daemon mains;
/// library code relies on MSG_NOSIGNAL instead so embedding processes keep
/// their own signal disposition.
void ignore_sigpipe();

/// Best-effort TCP_NODELAY (no-op on failure, e.g. non-TCP fds).
void set_tcp_nodelay(int fd);

/// O_NONBLOCK on/off. Returns false when fcntl fails.
bool set_nonblocking(int fd, bool nonblocking = true);

/// A bound, listening loopback socket and the port it got.
struct Listener {
  int fd = -1;
  std::uint16_t port = 0;
};

/// Bind 127.0.0.1:port (SO_REUSEADDR, so a restarted daemon rebinds its
/// port through the TIME_WAIT tail) and listen; port 0 picks an ephemeral
/// port. Throws precondition_error when the socket cannot be bound. Both
/// daemons bind through Daemon::bind_listen().
Listener listen_loopback(std::uint16_t port);

/// Blocking connect to 127.0.0.1:port. Returns the connected fd (with
/// TCP_NODELAY set), or -1.
int connect_loopback(std::uint16_t port);

/// Like connect_loopback, but the dial itself is bounded: a nonblocking
/// connect() polled until `deadline`. A SYN-blackholed peer (listener gone
/// but packets silently dropped, or a full accept backlog) therefore costs
/// at most the deadline instead of the kernel's SYN-retry default. The
/// returned fd is switched back to blocking mode.
int connect_loopback(std::uint16_t port,
                     std::chrono::steady_clock::time_point deadline);

/// Send the whole buffer (MSG_NOSIGNAL, EINTR-retrying). False when the
/// peer is gone or the socket errors; the caller owns closing the fd.
bool send_all(int fd, std::string_view data);

/// Incremental newline splitter over a socket: feeds recv() bytes into an
/// internal buffer and hands back one line at a time with the trailing
/// '\n' (and any '\r') stripped. The reader never owns the fd.
///
/// Nonblocking users recv() themselves (until EAGAIN), append() the bytes,
/// and drain with pop_line(); blocking users call read_line(), which
/// recv()s internally.
///
/// Line length is bounded (kDefaultMaxLineBytes unless overridden): a
/// peer that streams bytes without ever sending '\n' — or whose one
/// "line" exceeds the cap — flips the reader into the overflowed() state
/// instead of growing the buffer without limit. An overflowed reader
/// stops producing lines (has_line() false, pop_line()/read_line()
/// nullopt); the caller must treat the connection as protocol-broken and
/// close or abandon it. The largest legitimate line in this protocol is
/// a `metrics` dump at a few KiB, so the 1 MiB default is pure headroom.
class LineReader {
 public:
  static constexpr std::size_t kDefaultMaxLineBytes = 1 << 20;  // 1 MiB

  LineReader() = default;
  explicit LineReader(int fd) : fd_(fd) {}

  int fd() const { return fd_; }
  void reset(int fd) {
    fd_ = fd;
    acc_.clear();
    overflowed_ = false;
  }

  /// Cap on a single line's length (exclusive of the '\n'). Applies to
  /// bytes appended after the call.
  void set_max_line_bytes(std::size_t n) { max_line_ = n; }
  std::size_t max_line_bytes() const { return max_line_; }

  /// True once a line longer than the cap was seen. Latched until
  /// reset(); the fd is untouched (the caller owns closing it).
  bool overflowed() const { return overflowed_; }

  /// Bytes currently buffered (bounded by max_line_bytes() + one recv).
  std::size_t buffered_bytes() const { return acc_.size(); }

  /// True when a complete line is already buffered (no syscall needed).
  bool has_line() const;

  /// Feed externally-received bytes (nonblocking event-loop style).
  void append(std::string_view data) {
    acc_.append(data);
    check_overflow();
  }

  /// Next buffered line, or nullopt when no complete line is buffered.
  /// Never touches the fd.
  std::optional<std::string> pop_line();

  /// Next line, blocking until one arrives, the peer closes (nullopt), or
  /// `deadline` passes (nullopt; the connection should then be abandoned —
  /// a late reply would desynchronize request/response pairing). Also
  /// nullopt on overflow (check overflowed() to distinguish).
  std::optional<std::string> read_line(
      std::chrono::steady_clock::time_point deadline =
          std::chrono::steady_clock::time_point::max());

 private:
  /// Latch overflowed_ when the buffered prefix before the first '\n'
  /// (or the whole buffer, if none) exceeds the cap.
  void check_overflow();

  int fd_ = -1;
  std::string acc_;
  std::size_t max_line_ = kDefaultMaxLineBytes;
  bool overflowed_ = false;
};

/// Per-socket pending-write queue for nonblocking connections. Small
/// response/forward lines accumulate as chunks and flush() coalesces them
/// into one gathered sendmsg() call (up to kMaxIov segments per syscall,
/// MSG_NOSIGNAL), so an event-loop iteration that produced N lines for a
/// socket pays one syscall, not N.
class WriteQueue {
 public:
  enum class FlushResult {
    kDrained,  // everything written, queue empty
    kBlocked,  // socket would block; re-flush on writability
    kError,    // peer gone / socket error; close the connection
  };

  void push(std::string chunk);
  bool empty() const { return chunks_.empty(); }
  std::size_t bytes() const { return bytes_; }

  /// Write as much as possible to the (nonblocking) fd with one gathered
  /// sendmsg() per kMaxIov chunks.
  FlushResult flush(int fd);

  void clear();

 private:
  static constexpr std::size_t kMaxIov = 64;

  std::deque<std::string> chunks_;
  std::size_t front_offset_ = 0;  // bytes of chunks_.front() already sent
  std::size_t bytes_ = 0;         // total unsent bytes
};

/// Wait until `fd` is readable or `deadline` passes; true when readable.
/// (poll()-based; EINTR-retrying.)
bool wait_readable(int fd,
                   std::chrono::steady_clock::time_point deadline);

/// Half-close the write side, then read-and-discard until the peer closes
/// or `budget` elapses. Use before close()ing a connection whose receive
/// buffer may still hold unread bytes (e.g. after booting a client for an
/// overlong line): closing with unread data raises RST, which can discard
/// the just-sent final reply before the peer reads it. The caller still
/// owns the final close().
void shutdown_drain(int fd, std::chrono::milliseconds budget);

}  // namespace tecfan::service
