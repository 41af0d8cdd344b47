#include "cluster/epoll_plane.h"

#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "cluster/router.h"
#include "service/fault_injection.h"

namespace tecfan::cluster {
namespace {

using Clock = std::chrono::steady_clock;
using service::Response;

Clock::time_point deadline_from_ms(Clock::time_point start, double ms) {
  if (ms <= 0) return Clock::time_point::max();
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(ms));
}

/// Locale-independent %g formatting for the re-attached deadline_ms
/// parameter (the backend parses it with from_chars).
std::string format_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", ms);
  return buf;
}

/// A trustworthy backend response line starts with a protocol status
/// token. Anything else means the connection can no longer be paired
/// request-to-response and must be abandoned.
bool valid_response_line(const std::string& line) {
  const auto starts_with_word = [&line](std::string_view word) {
    return line.compare(0, word.size(), word) == 0 &&
           (line.size() == word.size() || line[word.size()] == ' ');
  };
  return starts_with_word("ok") || starts_with_word("error") ||
         starts_with_word("busy");
}

}  // namespace

EpollPlane::EpollPlane(Router& router, int listen_fd)
    : router_(router),
      listen_fd_(listen_fd),
      pipes_(router.options_.backend_ports.size()) {}

EpollPlane::~EpollPlane() = default;

void EpollPlane::run() {
  service::set_nonblocking(listen_fd_);
  loop_.add_fd(listen_fd_, EPOLLIN,
               [this](std::uint32_t events) { on_accept(events); });
  loop_.set_post_hook([this] { post_iteration_flush(); });
  loop_.set_stats(router_.hist_loop_iteration_,
                  router_.hist_loop_dispatch_batch_);
  loop_.run();

  // Teardown: the plane owns every session and pipe fd (the listen fd
  // stays with the daemon shell). In-flight requests die with their sessions.
  loop_.remove_fd(listen_fd_);
  for (auto& [id, session] : sessions_) {
    loop_.remove_fd(session.fd);
    ::close(session.fd);
  }
  sessions_.clear();
  for (auto& pipe : pipes_) {
    if (pipe.fd >= 0) {
      loop_.remove_fd(pipe.fd);
      ::close(pipe.fd);
      pipe.fd = -1;
    }
    pipe.state = BackendPipe::State::kDown;
    pipe.inflight.clear();
    pipe.stall_timer = 0;
    pipe.dial_timer = 0;
  }
  pending_.clear();
  router_.pending_gauge_.store(0, std::memory_order_relaxed);
  router_.inflight_gauge_.store(0, std::memory_order_relaxed);
  for (Gauge* gauge : router_.gauge_backend_inflight_) gauge->set(0.0);
}

void EpollPlane::request_stop() { loop_.stop(); }

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

void EpollPlane::on_accept(std::uint32_t) {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      // EAGAIN: batch drained. Anything else (listening socket shut down
      // by stop()) is handled by the pending loop stop.
      return;
    }
    service::set_nonblocking(fd);
    service::set_tcp_nodelay(fd);
    const std::uint64_t id = next_session_id_++;
    Session& session = sessions_[id];
    session.fd = fd;
    session.id = id;
    session.reader.reset(fd);
    loop_.add_fd(fd, EPOLLIN, [this, id](std::uint32_t events) {
      on_session_event(id, events);
    });
  }
}

void EpollPlane::on_session_event(std::uint64_t id, std::uint32_t events) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  Session& session = it->second;

  if (events & EPOLLOUT) {
    flush_session(id);
    it = sessions_.find(id);
    if (it == sessions_.end()) return;  // flush closed it
  }

  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) return;
  if (session.quit || session.read_closed || session.paused) return;

  char buf[16384];
  for (;;) {
    const ssize_t n =
        service::faulted_recv(session.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      session.reader.append({buf, static_cast<std::size_t>(n)});
      continue;
    }
    if (n == 0) {
      session.read_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    session.read_closed = true;  // connection reset; drain what we parsed
    break;
  }

  while (!session.quit) {
    auto line = session.reader.pop_line();
    if (!line) break;
    if (line->empty()) continue;
    dispatch_line(session, *line);
  }

  if (session.reader.overflowed() && !session.quit) {
    // Protocol error: one clean error reply in order behind anything
    // already pipelined, then the session stops reading (quit path) and
    // closes once its backlog drains.
    router_.counter_errors_->inc();
    const std::uint64_t seq = session.next_seq++;
    session.slots.emplace_back();
    session.quit = true;
    fill_slot(session, seq,
              service::serialize_response(
                  Response::make_error("request line too long")));
  }

  if (session.out.bytes() >= kPauseBytes) session.paused = true;
  mark_session_dirty(session);
  update_session_events(session);

  // A client that closed with nothing outstanding closes now rather than
  // waiting for the post-iteration flush.
  if ((session.read_closed || session.quit) && session.slots.empty() &&
      session.out.empty()) {
    close_session(id);
  }
}

void EpollPlane::dispatch_line(Session& session, const std::string& line) {
  const auto line_start = Clock::now();
  bool quit = false;
  service::ParsedRequest parsed;
  auto local = router_.handle_local(line, &parsed, &quit);
  const std::uint64_t seq = session.next_seq++;
  session.slots.emplace_back();
  if (local) {
    if (quit) session.quit = true;
    fill_slot(session, seq, std::move(*local));
    return;
  }
  route(session, seq, parsed.request, line_start);
}

void EpollPlane::fill_slot(Session& session, std::uint64_t seq,
                           std::string reply) {
  const std::uint64_t index = seq - session.base_seq;
  Slot& slot = session.slots[index];
  slot.ready = true;
  slot.reply = std::move(reply);
  drain_ready(session);
}

void EpollPlane::drain_ready(Session& session) {
  bool pushed = false;
  while (!session.slots.empty() && session.slots.front().ready) {
    std::string wire = std::move(session.slots.front().reply);
    wire += '\n';
    session.out.push(std::move(wire));
    session.slots.pop_front();
    ++session.base_seq;
    pushed = true;
  }
  if (pushed) mark_session_dirty(session);
}

void EpollPlane::flush_session(std::uint64_t id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  Session& session = it->second;

  router_.note_writeq_bytes(session.out.bytes());
  if (!session.out.empty()) {
    switch (session.out.flush(session.fd)) {
      case service::WriteQueue::FlushResult::kError:
        close_session(id);
        return;
      case service::WriteQueue::FlushResult::kBlocked:
        session.write_blocked = true;
        break;
      case service::WriteQueue::FlushResult::kDrained:
        session.write_blocked = false;
        break;
    }
  } else {
    session.write_blocked = false;
  }

  if (session.paused && session.out.bytes() <= kResumeBytes)
    session.paused = false;

  if ((session.quit || session.read_closed) && session.slots.empty() &&
      session.out.empty()) {
    close_session(id);
    return;
  }
  update_session_events(session);
}

void EpollPlane::close_session(std::uint64_t id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  loop_.remove_fd(it->second.fd);
  ::close(it->second.fd);
  // Requests still in flight for this session keep running; their replies
  // are dropped at delivery when the session id no longer resolves.
  sessions_.erase(it);
}

void EpollPlane::update_session_events(Session& session) {
  std::uint32_t events = 0;
  if (!session.paused && !session.quit && !session.read_closed)
    events |= EPOLLIN;
  if (session.write_blocked) events |= EPOLLOUT;
  loop_.modify_fd(session.fd, events);
}

void EpollPlane::mark_session_dirty(Session& session) {
  if (session.dirty || session.out.empty()) return;
  session.dirty = true;
  dirty_sessions_.push_back(session.id);
}

// ---------------------------------------------------------------------------
// Backend side
// ---------------------------------------------------------------------------

EpollPlane::BackendPipe* EpollPlane::ensure_pipe(std::size_t b) {
  BackendPipe& pipe = pipes_[b];
  if (pipe.state != BackendPipe::State::kDown) return &pipe;

  // This raw nonblocking dial bypasses connect_loopback(), so it consults
  // the fault injector itself: a refused decision behaves exactly like a
  // synchronous ECONNREFUSED from the kernel.
  if (service::FaultInjector* fi = service::active_fault_injector()) {
    const service::FaultDecision d = service::settle_fault_delay(
        fi->on_connect(router_.options_.backend_ports[b]));
    if (d.kind == service::FaultDecision::Kind::kFail ||
        d.kind == service::FaultDecision::Kind::kEof) {
      return nullptr;
    }
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  service::set_nonblocking(fd);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(router_.options_.backend_ports[b]);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);

  if (rc == 0) {
    service::set_tcp_nodelay(fd);
    pipe.state = BackendPipe::State::kUp;
  } else if (errno == EINPROGRESS) {
    // Queue forwards while the handshake completes; the WriteQueue only
    // flushes once the pipe is kUp.
    pipe.state = BackendPipe::State::kConnecting;
    pipe.dial_timer = loop_.add_timer(
        deadline_from_ms(Clock::now(), router_.options_.dial_timeout_ms),
        [this, b] {
          pipes_[b].dial_timer = 0;
          if (pipes_[b].state == BackendPipe::State::kConnecting)
            on_pipe_error(b);
        });
  } else {
    ::close(fd);
    return nullptr;
  }

  pipe.fd = fd;
  pipe.reader.reset(fd);
  const std::uint32_t events =
      pipe.state == BackendPipe::State::kUp ? EPOLLIN : EPOLLOUT;
  loop_.add_fd(fd, events,
               [this, b](std::uint32_t ev) { on_pipe_event(b, ev); });
  return &pipe;
}

void EpollPlane::on_pipe_event(std::size_t b, std::uint32_t events) {
  BackendPipe& pipe = pipes_[b];
  if (pipe.fd < 0) return;

  if (pipe.state == BackendPipe::State::kConnecting) {
    if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) == 0) return;
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(pipe.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      on_pipe_error(b);
      return;
    }
    service::set_tcp_nodelay(pipe.fd);
    pipe.state = BackendPipe::State::kUp;
    if (pipe.dial_timer) {
      loop_.cancel_timer(pipe.dial_timer);
      pipe.dial_timer = 0;
    }
    loop_.modify_fd(pipe.fd, EPOLLIN);
    mark_pipe_dirty(b);  // flush the forwards queued during the dial
    return;
  }

  if (events & EPOLLOUT) flush_pipe(b);
  if (pipe.fd < 0) return;  // flush tore the pipe down

  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) return;

  char buf[16384];
  bool dead = false;
  for (;;) {
    const ssize_t n = service::faulted_recv(pipe.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      pipe.reader.append({buf, static_cast<std::size_t>(n)});
      continue;
    }
    if (n == 0) {
      dead = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    dead = true;
    break;
  }

  for (;;) {
    auto line = pipe.reader.pop_line();
    if (!line) break;
    if (!valid_response_line(*line) || pipe.inflight.empty()) {
      // Malformed (or unsolicited) response: request/response pairing on
      // this connection can no longer be trusted — abandon it and fail
      // everything still in flight over the ring.
      on_pipe_error(b);
      return;
    }
    const InFlight inflight = pipe.inflight.front();
    pipe.inflight.pop_front();
    router_.inflight_gauge_.fetch_sub(1, std::memory_order_relaxed);
    router_.gauge_backend_inflight_[b]->set(
        static_cast<double>(pipe.inflight.size()));
    handle_backend_reply(b, inflight, std::move(*line));
    if (pipe.fd < 0) return;  // a completion handler tore the pipe down
  }

  // A reply line longer than the reader cap is malformed framing, same as
  // a non-protocol status token.
  if (pipe.reader.overflowed()) {
    on_pipe_error(b);
    return;
  }

  if (dead) on_pipe_error(b);
}

void EpollPlane::on_pipe_error(std::size_t b) {
  BackendPipe& pipe = pipes_[b];
  if (pipe.fd >= 0) {
    loop_.remove_fd(pipe.fd);
    ::close(pipe.fd);
    pipe.fd = -1;
  }
  if (pipe.dial_timer) {
    loop_.cancel_timer(pipe.dial_timer);
    pipe.dial_timer = 0;
  }
  if (pipe.stall_timer) {
    loop_.cancel_timer(pipe.stall_timer);
    pipe.stall_timer = 0;
  }
  pipe.state = BackendPipe::State::kDown;
  pipe.reader.reset(-1);
  pipe.out.clear();
  pipe.write_blocked = false;

  // Swap the FIFO out before iterating: failover below may redial pipes
  // (never this one — a request's candidate cursor only moves forward and
  // the ring chain is distinct) and must not mutate the deque mid-walk.
  std::deque<InFlight> failed;
  failed.swap(pipe.inflight);
  router_.inflight_gauge_.fetch_sub(failed.size(),
                                    std::memory_order_relaxed);
  router_.gauge_backend_inflight_[b]->set(0.0);
  for (const InFlight& inflight : failed) {
    auto it = pending_.find(inflight.request_id);
    if (it == pending_.end()) continue;  // already answered elsewhere
    PendingRequest& request = it->second;
    router_.health_->report_failure(b);
    router_.counter_failovers_->inc();
    --request.live_attempts;
    if (b == request.hedge_backend) request.hedge_backend = kNoBackend;
    if (request.live_attempts > 0) continue;  // hedge twin still racing
    if (send_attempt(request)) continue;
    complete_error(request.id, "no backend available");
  }
}

void EpollPlane::handle_backend_reply(std::size_t b, const InFlight& inflight,
                                      std::string line) {
  // Any in-order reply proves the backend serves, whether or not the
  // request still wants it.
  router_.health_->report_success(b);
  auto it = pending_.find(inflight.request_id);
  if (it == pending_.end()) return;  // hedge loser / post-deadline: discard
  const auto now = Clock::now();
  router_.hist_backend_wait_->record(now - inflight.sent_at);
  if (b == it->second.hedge_backend) router_.counter_hedge_wins_->inc();
  if (it->second.trace.sampled) {
    // Winner's spans only: a loser's reply fails the pending_ lookup
    // above and never reaches the rings.
    router_.tracer_.record(it->second.trace, SpanName::kBackendWait,
                           inflight.sent_at, now);
    router_.ingest_backend_spans(it->second.trace, line, inflight.sent_at);
  }
  complete(inflight.request_id, std::move(line));
}

void EpollPlane::flush_pipe(std::size_t b) {
  BackendPipe& pipe = pipes_[b];
  if (pipe.state != BackendPipe::State::kUp || pipe.fd < 0) return;
  router_.note_writeq_bytes(pipe.out.bytes());
  bool blocked = false;
  if (!pipe.out.empty()) {
    switch (pipe.out.flush(pipe.fd)) {
      case service::WriteQueue::FlushResult::kError:
        on_pipe_error(b);
        return;
      case service::WriteQueue::FlushResult::kBlocked:
        blocked = true;
        break;
      case service::WriteQueue::FlushResult::kDrained:
        break;
    }
  }
  if (blocked != pipe.write_blocked) {
    pipe.write_blocked = blocked;
    loop_.modify_fd(pipe.fd,
                    blocked ? (EPOLLIN | EPOLLOUT)
                            : static_cast<std::uint32_t>(EPOLLIN));
  }
}

void EpollPlane::mark_pipe_dirty(std::size_t b) {
  BackendPipe& pipe = pipes_[b];
  if (pipe.dirty) return;
  pipe.dirty = true;
  dirty_pipes_.push_back(b);
}

// ---------------------------------------------------------------------------
// Request lifecycle
// ---------------------------------------------------------------------------

void EpollPlane::route(Session& session, std::uint64_t seq,
                       const service::Request& request,
                       Clock::time_point line_start) {
  router_.counter_routed_->inc();

  // Head-of-trace decision (or adoption of an upstream context); sampled
  // requests carry the context on the wire to every attempt, unsampled
  // ones put nothing there — byte-identical to the pre-trace wire.
  const TraceContext trace = request.trace.sampled
                                 ? router_.tracer_.adopt(request.trace)
                                 : router_.tracer_.start_trace();

  const std::string key = service::canonical_key(request);
  std::string wire = key;
  if (request.deadline_ms > 0)
    wire += " deadline_ms=" + format_ms(request.deadline_ms);
  if (trace.sampled) wire += " trace=" + trace.wire();
  wire += '\n';

  const auto now = Clock::now();
  const double deadline_ms = request.deadline_ms > 0
                                 ? request.deadline_ms
                                 : router_.options_.backend_deadline_ms;
  const auto deadline = deadline_from_ms(now, deadline_ms);

  // Failover order: the owner, then the distinct ring successors, down
  // backends filtered up front (full chain as the all-down fallback — the
  // monitor may be stale, and a traffic-path success marks it up again).
  const std::vector<std::size_t> full_chain = router_.shards_.replica_chain(key);
  std::vector<std::size_t> chain;
  chain.reserve(full_chain.size());
  for (const std::size_t b : full_chain)
    if (router_.health_->up(b)) chain.push_back(b);
  if (chain.empty()) chain = full_chain;
  const auto route_end = Clock::now();
  router_.hist_route_->record(route_end - line_start);
  if (trace.sampled)
    router_.tracer_.record(trace, SpanName::kRoute, line_start, route_end);

  const std::uint64_t id = next_request_id_++;
  PendingRequest& pending = pending_[id];
  router_.pending_gauge_.fetch_add(1, std::memory_order_relaxed);
  pending.id = id;
  pending.session_id = session.id;
  pending.slot_seq = seq;
  pending.wire = std::move(wire);
  pending.chain = std::move(chain);
  pending.line_start = line_start;
  pending.deadline = deadline;
  pending.trace = trace;

  if (!send_attempt(pending)) {
    complete_error(id, "no backend available");
    return;
  }

  const bool hedging =
      router_.options_.hedge_ms >= 0 && router_.current_hedge_delay_us() > 0;
  if (hedging && pending.next_candidate < pending.chain.size()) {
    auto hedge_at =
        now + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::micro>(
                      router_.current_hedge_delay_us()));
    if (deadline < hedge_at) hedge_at = deadline;
    pending.hedge_timer =
        loop_.add_timer(hedge_at, [this, id] { on_hedge_fire(id); });
  }
  if (deadline != Clock::time_point::max()) {
    pending.deadline_timer =
        loop_.add_timer(deadline, [this, id] { on_deadline_fire(id); });
  }
}

std::optional<std::size_t> EpollPlane::send_attempt(PendingRequest& request) {
  while (request.next_candidate < request.chain.size()) {
    const std::size_t b = request.chain[request.next_candidate++];
    BackendPipe* pipe = ensure_pipe(b);
    if (!pipe) {
      router_.health_->report_failure(b);
      router_.counter_failovers_->inc();
      continue;
    }
    const auto now = Clock::now();
    InFlight entry;
    entry.request_id = request.id;
    entry.entry_id = pipe->next_entry_id++;
    entry.sent_at = now;
    entry.expires_at = stall_expiry(now, request.deadline);
    const bool was_empty = pipe->inflight.empty();
    pipe->out.push(request.wire);
    pipe->inflight.push_back(entry);
    router_.inflight_gauge_.fetch_add(1, std::memory_order_relaxed);
    router_.gauge_backend_inflight_[b]->set(
        static_cast<double>(pipe->inflight.size()));
    mark_pipe_dirty(b);
    ++request.live_attempts;
    // Arm the watchdog only when this entry became the FIFO front; pops
    // never rearm (zero hot-path cost), so an armed timer may be for an
    // already-completed front — on_pipe_stall re-checks and rearms.
    if (was_empty) arm_pipe_stall(b);
    return b;
  }
  return std::nullopt;
}

EpollPlane::Clock::time_point EpollPlane::stall_expiry(
    Clock::time_point now, Clock::time_point request_deadline) const {
  if (request_deadline != Clock::time_point::max()) {
    return request_deadline +
           std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double, std::milli>(
                   router_.options_.stall_grace_ms));
  }
  if (router_.options_.pipe_stall_ms <= 0) return Clock::time_point::max();
  return now + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(
                       router_.options_.pipe_stall_ms));
}

void EpollPlane::arm_pipe_stall(std::size_t b) {
  BackendPipe& pipe = pipes_[b];
  if (pipe.stall_timer) {
    loop_.cancel_timer(pipe.stall_timer);
    pipe.stall_timer = 0;
  }
  if (pipe.fd < 0 || pipe.inflight.empty()) return;
  const InFlight& front = pipe.inflight.front();
  if (front.expires_at == Clock::time_point::max()) return;
  pipe.stall_timer = loop_.add_timer(
      front.expires_at,
      [this, b, eid = front.entry_id] {
        pipes_[b].stall_timer = 0;
        on_pipe_stall(b, eid);
      });
}

void EpollPlane::on_pipe_stall(std::size_t b, std::uint64_t entry_id) {
  BackendPipe& pipe = pipes_[b];
  if (pipe.fd < 0) return;
  if (pipe.inflight.empty()) return;  // drained since arming
  if (pipe.inflight.front().entry_id != entry_id) {
    // The front the timer was armed for completed; rearm for the current
    // front (its expiry may already be past, in which case add_timer
    // fires on the next loop iteration).
    arm_pipe_stall(b);
    return;
  }
  // The head reply is overdue. In-order pairing means nothing behind the
  // head can complete either: the pipe accepted forwards and stopped
  // replying (accept-then-blackhole, or a wedged backend). Report it and
  // tear the pipe down — on_pipe_error fails the whole FIFO over the
  // ring, which is also what reclaims hedge-loser entries whose requests
  // completed long ago via the winner.
  router_.counter_pipe_stalls_->inc();
  router_.health_->report_failure(b);
  on_pipe_error(b);
}

void EpollPlane::on_hedge_fire(std::uint64_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  PendingRequest& request = it->second;
  request.hedge_timer = 0;
  // A failover in progress already consumed the next candidate; hedging
  // on top of it would double-spend the chain.
  if (request.live_attempts < 1) return;
  if (request.next_candidate >= request.chain.size()) return;
  // Same canonical line to the ring replica; first answer wins. The loser
  // still fills its own cache shard — wasted compute is the price of the
  // tail cut.
  if (auto b = send_attempt(request)) {
    router_.counter_hedges_->inc();
    request.hedge_backend = *b;
  }
}

void EpollPlane::on_deadline_fire(std::uint64_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  it->second.deadline_timer = 0;
  // Attempts still in flight stay on their FIFOs; late replies are
  // discarded by descriptor when they arrive.
  complete_error(id, "no backend available");
}

void EpollPlane::complete(std::uint64_t id, std::string reply) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  const std::uint64_t session_id = it->second.session_id;
  const std::uint64_t slot_seq = it->second.slot_seq;
  const Clock::time_point line_start = it->second.line_start;
  const TraceContext trace = it->second.trace;
  if (it->second.hedge_timer) loop_.cancel_timer(it->second.hedge_timer);
  if (it->second.deadline_timer)
    loop_.cancel_timer(it->second.deadline_timer);
  pending_.erase(it);
  router_.pending_gauge_.fetch_sub(1, std::memory_order_relaxed);

  router_.finish_compute(reply, trace, line_start);

  auto sit = sessions_.find(session_id);
  if (sit == sessions_.end()) return;  // client left; drop the reply
  fill_slot(sit->second, slot_seq, std::move(reply));
}

void EpollPlane::complete_error(std::uint64_t id, const char* message) {
  router_.counter_errors_->inc();
  complete(id, service::serialize_response(Response::make_error(message)));
}

// ---------------------------------------------------------------------------
// Batched writes
// ---------------------------------------------------------------------------

void EpollPlane::post_iteration_flush() {
  // Flushes can cascade (a pipe error fails requests over, dirtying other
  // pipes and sessions), so drain until a fixed point.
  while (!dirty_pipes_.empty() || !dirty_sessions_.empty()) {
    std::vector<std::size_t> pipes;
    pipes.swap(dirty_pipes_);
    for (const std::size_t b : pipes) {
      pipes_[b].dirty = false;
      flush_pipe(b);
    }
    std::vector<std::uint64_t> sessions;
    sessions.swap(dirty_sessions_);
    for (const std::uint64_t id : sessions) {
      auto it = sessions_.find(id);
      if (it == sessions_.end()) continue;
      it->second.dirty = false;
      flush_session(id);
    }
  }
}

}  // namespace tecfan::cluster
