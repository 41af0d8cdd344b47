// Single-threaded epoll event loop for the router's event-driven data
// plane (src/cluster/epoll_plane.*).
//
// The loop multiplexes nonblocking sockets (level-triggered epoll),
// monotonic-clock timers (hedge delays, forward deadlines, dial
// timeouts), and a cross-thread stop signal (eventfd). One iteration:
//
//   1. fire every timer whose due time has passed,
//   2. epoll_wait with a timeout bounded by the earliest pending timer,
//   3. dispatch fd handlers for the ready events,
//   4. run the post-iteration hook (the data plane uses it to flush all
//      per-socket write queues with one gathered write each — the only
//      write-batching boundary, since every socket is TCP_NODELAY).
//
// Everything except stop() must be called from the loop thread. Handlers
// may add/remove fds and timers freely, including their own: fd
// registrations carry a generation counter, so an event for an fd number
// that was removed (and possibly recycled by a new connection) within the
// same batch is dropped instead of misdelivered.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>

#include "util/metrics.h"

namespace tecfan::cluster {

class EventLoop {
 public:
  using Clock = std::chrono::steady_clock;
  using FdHandler = std::function<void(std::uint32_t epoll_events)>;
  using TimerHandler = std::function<void()>;
  using Hook = std::function<void()>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Register `fd` for `events` (EPOLLIN/EPOLLOUT/...). The loop never
  /// owns the fd; remove_fd() before closing it.
  void add_fd(int fd, std::uint32_t events, FdHandler handler);
  void modify_fd(int fd, std::uint32_t events);
  void remove_fd(int fd);

  /// One-shot timer; returns a nonzero id. The handler runs on the loop
  /// thread once `when` has passed and the id is spent.
  std::uint64_t add_timer(Clock::time_point when, TimerHandler handler);
  /// Cancel a pending timer; 0 and already-fired ids are ignored.
  void cancel_timer(std::uint64_t id);

  /// Runs after each iteration's timers + events (write-flush hook).
  void set_post_hook(Hook hook) { post_hook_ = std::move(hook); }

  /// Optional loop-health instrumentation: `iteration` records the active
  /// portion of each iteration (epoll_wait return through the post hook,
  /// us) and `dispatch_batch` the number of ready events per nonempty
  /// epoll_wait batch. Null sinks (the default) cost nothing; the clock is
  /// only read when a sink is set. Call before run().
  void set_stats(LatencyHistogram* iteration,
                 LatencyHistogram* dispatch_batch) {
    stats_iteration_ = iteration;
    stats_dispatch_batch_ = dispatch_batch;
  }

  /// Process events until stop(). Must run on one thread, once.
  void run();

  /// Thread-safe: wake the loop and make run() return after the current
  /// iteration. A stop() before run() makes run() return at once, so a
  /// stop that races the loop's start is never lost.
  void stop();

 private:
  struct FdEntry {
    std::uint64_t generation;
    std::uint32_t events;
    FdHandler handler;
  };
  struct TimerEntry {
    Clock::time_point when;
    TimerHandler handler;
  };

  void fire_due_timers();
  int next_timeout_ms() const;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd written by stop()
  std::atomic<bool> stop_requested_{false};
  std::uint64_t next_generation_ = 1;
  std::unordered_map<int, FdEntry> fds_;

  std::uint64_t next_timer_id_ = 1;
  // Due-time order plus id lookup for O(log n) cancel.
  std::multimap<Clock::time_point, std::uint64_t> timer_order_;
  std::unordered_map<std::uint64_t, TimerEntry> timers_;

  Hook post_hook_;
  LatencyHistogram* stats_iteration_ = nullptr;
  LatencyHistogram* stats_dispatch_batch_ = nullptr;
};

}  // namespace tecfan::cluster
