// The router's data plane: one thread, nonblocking sockets, backend
// pipelining, batched writes.
//
// A single epoll loop serves every client and every backend, so a
// forwarded request never hands off between threads. Both sides of the
// router are state machines:
//
//   * Client sessions — O_NONBLOCK fds with a LineReader (incremental
//     line splitting) and a WriteQueue (response coalescing). A client may
//     pipeline request lines; responses are delivered strictly in request
//     order via a per-session reorder buffer (slots), because backends
//     complete out of order.
//   * Backend pipes — ONE persistent connection per backend carrying all
//     forwards concurrently. The line protocol is strictly in-order per
//     connection, so a FIFO of in-flight descriptors pairs each response
//     line with its request. Dials are nonblocking with a timeout.
//
// Invariants the tests pin:
//   * Pipelining: response k on a pipe answers the k-th unanswered forward
//     on that pipe — any response line that does not parse as a protocol
//     status (`ok`/`error`/`busy`), or that arrives with an empty FIFO,
//     abandons the connection (the pairing can no longer be trusted) and
//     fails the whole FIFO over the ring.
//   * Failover: a pipe death (EOF, error, dial timeout, malformed line)
//     fails every in-flight request over to its next ring replica with no
//     client-visible error as long as a replica is up; health reports and
//     the failover counter fire per affected request.
//   * Hedging: a hedge is cancelled by descriptor, never by connection
//     reuse — the loser's entry stays in its pipe FIFO and the reply is
//     discarded on arrival (the request id no longer resolves), keeping
//     the shared connection in sync.
//   * No FIFO entry lives forever: a pipe whose head reply is overdue
//     (request deadline + grace, or pipe_stall_ms for deadline-less
//     requests) is declared stalled — in-order pairing means nothing
//     behind the head can complete either — reported to health, torn
//     down, and its whole FIFO failed over. This reclaims hedge losers
//     parked on a blackholed backend, which complete successfully via
//     the winner and therefore never trip their own deadline timer.
//
// Writes are coalesced: handlers append to per-socket WriteQueues and a
// post-iteration hook flushes each dirty socket once (gathered sendmsg),
// so an iteration that produced N lines for a socket pays one syscall.
// TCP_NODELAY is set everywhere, making that flush the only batching
// boundary.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/event_loop.h"
#include "service/framing.h"
#include "service/request.h"

namespace tecfan::cluster {

class Router;

class EpollPlane {
 public:
  /// `listen_fd` is the daemon shell's bound listening socket (not owned;
  /// the plane switches it to O_NONBLOCK for its accept loop). One plane
  /// serves one Router::serve_loop() call.
  EpollPlane(Router& router, int listen_fd);
  ~EpollPlane();

  EpollPlane(const EpollPlane&) = delete;
  EpollPlane& operator=(const EpollPlane&) = delete;

  /// Event loop; returns after request_stop(). Single-threaded.
  void run();

  /// Thread-safe: wake the loop and make run() return. The Router
  /// registers it as the shell's wake; before run() it makes run() return
  /// at once.
  void request_stop();

 private:
  using Clock = std::chrono::steady_clock;

  static constexpr std::size_t kNoBackend = static_cast<std::size_t>(-1);
  /// Flow control: stop reading a session whose response backlog passes
  /// the high-water mark, resume below the low-water mark.
  static constexpr std::size_t kPauseBytes = 256 * 1024;
  static constexpr std::size_t kResumeBytes = 64 * 1024;

  /// One response slot in a session's reorder buffer.
  struct Slot {
    bool ready = false;
    std::string reply;  // without trailing '\n'
  };

  struct Session {
    int fd = -1;
    std::uint64_t id = 0;
    service::LineReader reader;
    service::WriteQueue out;
    /// Reorder buffer: slots_[i] answers request base_seq + i.
    std::deque<Slot> slots;
    std::uint64_t base_seq = 0;
    std::uint64_t next_seq = 0;
    bool read_closed = false;   // client EOF; drain replies then close
    bool quit = false;          // `quit` seen; stop reading
    bool paused = false;        // flow control: EPOLLIN dropped
    bool write_blocked = false; // EPOLLOUT armed
    bool dirty = false;         // queued for the post-iteration flush
  };

  /// One forward awaiting its in-order response line on a pipe.
  struct InFlight {
    std::uint64_t request_id = 0;
    /// Per-pipe monotone id: lets the stall timer verify the FIFO front
    /// it armed for is still the front when it fires.
    std::uint64_t entry_id = 0;
    Clock::time_point sent_at{};
    /// When the head-of-line stall watchdog declares this entry overdue:
    /// the request deadline plus grace, or sent_at + pipe_stall_ms for
    /// deadline-less requests. max() = never.
    Clock::time_point expires_at = Clock::time_point::max();
  };

  struct BackendPipe {
    enum class State { kDown, kConnecting, kUp };
    State state = State::kDown;
    int fd = -1;
    service::LineReader reader;
    service::WriteQueue out;
    std::deque<InFlight> inflight;
    std::uint64_t dial_timer = 0;
    /// Head-of-line stall watchdog (see arm_pipe_stall): a pipe that
    /// accepted forwards but stopped replying is torn down instead of
    /// holding its FIFO entries — hedge losers included — forever.
    std::uint64_t stall_timer = 0;
    std::uint64_t next_entry_id = 1;
    bool write_blocked = false;
    bool dirty = false;
  };

  /// One routed request, alive until its response (or error) is delivered.
  /// Erasure from pending_ IS completion: a reply whose id no longer
  /// resolves (hedge loser, post-deadline straggler) is discarded.
  struct PendingRequest {
    std::uint64_t id = 0;
    std::uint64_t session_id = 0;
    std::uint64_t slot_seq = 0;
    std::string wire;  // canonical line + '\n', resent verbatim on failover
    std::vector<std::size_t> chain;  // health-filtered failover candidates
    std::size_t next_candidate = 0;
    int live_attempts = 0;
    std::size_t hedge_backend = kNoBackend;
    Clock::time_point line_start{};
    Clock::time_point deadline = Clock::time_point::max();
    std::uint64_t hedge_timer = 0;
    std::uint64_t deadline_timer = 0;
    /// Sampled contexts ride the wire to every attempt (the hedged twin
    /// reuses `wire` verbatim); only the winning reply's spans are folded
    /// into the router's rings, because completion erases the request.
    TraceContext trace;
  };

  // Client side.
  void on_accept(std::uint32_t events);
  void on_session_event(std::uint64_t id, std::uint32_t events);
  void dispatch_line(Session& session, const std::string& line);
  void fill_slot(Session& session, std::uint64_t seq, std::string reply);
  void drain_ready(Session& session);
  /// Flush + flow-control resume + drained-close check. May close.
  void flush_session(std::uint64_t id);
  void close_session(std::uint64_t id);
  void update_session_events(Session& session);
  void mark_session_dirty(Session& session);

  // Backend side.
  /// Pipe for backend b, dialing (async) if down. nullptr if socket().
  BackendPipe* ensure_pipe(std::size_t b);
  void on_pipe_event(std::size_t b, std::uint32_t events);
  /// Tear the pipe down and fail its whole in-flight FIFO over the ring.
  void on_pipe_error(std::size_t b);
  void handle_backend_reply(std::size_t b, const InFlight& inflight,
                            std::string line);
  void flush_pipe(std::size_t b);
  void mark_pipe_dirty(std::size_t b);
  /// (Re)arm the stall watchdog for the pipe's current FIFO front. At
  /// most one timer per pipe: replies don't rearm it (hot-path cost
  /// zero); a firing with a fresh front just rearms for that front.
  void arm_pipe_stall(std::size_t b);
  void on_pipe_stall(std::size_t b, std::uint64_t entry_id);
  /// expires_at for a new FIFO entry (deadline + grace, or the
  /// pipe_stall_ms bound for deadline-less requests).
  Clock::time_point stall_expiry(Clock::time_point now,
                                 Clock::time_point request_deadline) const;

  // Request lifecycle.
  void route(Session& session, std::uint64_t seq,
             const service::Request& request, Clock::time_point line_start);
  /// Send on the next live candidate; returns the backend index used.
  std::optional<std::size_t> send_attempt(PendingRequest& request);
  void on_hedge_fire(std::uint64_t id);
  void on_deadline_fire(std::uint64_t id);
  void complete(std::uint64_t id, std::string reply);
  void complete_error(std::uint64_t id, const char* message);

  void post_iteration_flush();

  Router& router_;
  const int listen_fd_;
  EventLoop loop_;

  std::unordered_map<std::uint64_t, Session> sessions_;
  std::vector<BackendPipe> pipes_;
  std::unordered_map<std::uint64_t, PendingRequest> pending_;
  std::uint64_t next_session_id_ = 1;
  std::uint64_t next_request_id_ = 1;

  // Sockets with queued bytes, flushed once per loop iteration.
  std::vector<std::uint64_t> dirty_sessions_;
  std::vector<std::size_t> dirty_pipes_;
};

}  // namespace tecfan::cluster
