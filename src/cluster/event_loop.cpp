#include "cluster/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace tecfan::cluster {

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw std::runtime_error("epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    throw std::runtime_error("eventfd failed");
  }
  add_fd(wake_fd_, EPOLLIN, [this](std::uint32_t) {
    std::uint64_t drain = 0;
    // Drain so a level-triggered wake doesn't spin; value is irrelevant.
    [[maybe_unused]] const ssize_t n =
        ::read(wake_fd_, &drain, sizeof(drain));
  });
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::add_fd(int fd, std::uint32_t events, FdHandler handler) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0)
    throw std::runtime_error("epoll_ctl(ADD) failed");
  fds_[fd] = FdEntry{next_generation_++, events, std::move(handler)};
}

void EventLoop::modify_fd(int fd, std::uint32_t events) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) return;
  if (it->second.events == events) return;
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0)
    it->second.events = events;
}

void EventLoop::remove_fd(int fd) {
  if (fds_.erase(fd) == 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

std::uint64_t EventLoop::add_timer(Clock::time_point when,
                                   TimerHandler handler) {
  const std::uint64_t id = next_timer_id_++;
  timers_.emplace(id, TimerEntry{when, std::move(handler)});
  timer_order_.emplace(when, id);
  return id;
}

void EventLoop::cancel_timer(std::uint64_t id) {
  auto it = timers_.find(id);
  if (it == timers_.end()) return;
  const auto range = timer_order_.equal_range(it->second.when);
  for (auto oit = range.first; oit != range.second; ++oit) {
    if (oit->second == id) {
      timer_order_.erase(oit);
      break;
    }
  }
  timers_.erase(it);
}

void EventLoop::fire_due_timers() {
  const auto now = Clock::now();
  while (!timer_order_.empty() && timer_order_.begin()->first <= now) {
    const std::uint64_t id = timer_order_.begin()->second;
    timer_order_.erase(timer_order_.begin());
    auto it = timers_.find(id);
    if (it == timers_.end()) continue;
    TimerHandler handler = std::move(it->second.handler);
    timers_.erase(it);
    handler();
  }
}

int EventLoop::next_timeout_ms() const {
  if (timer_order_.empty()) return -1;
  const auto remaining = timer_order_.begin()->first - Clock::now();
  if (remaining <= Clock::duration::zero()) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
          .count();
  return static_cast<int>(ms) + 1;  // round up, don't spin sub-ms
}

void EventLoop::run() {
  std::vector<epoll_event> events(64);
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    fire_due_timers();
    // Timer callbacks produce output too (deadline errors, stall-driven
    // failovers): flush it BEFORE blocking. epoll_wait's timeout only
    // wakes for the next timer; with none left and an idle peer the
    // queued bytes would otherwise sit until unrelated traffic arrives —
    // the chaos storms caught exactly that as a forever-stuck reply.
    if (post_hook_) post_hook_();
    int n;
    do {
      n = ::epoll_wait(epoll_fd_, events.data(),
                       static_cast<int>(events.size()), next_timeout_ms());
    } while (n < 0 && errno == EINTR);
    if (n < 0) break;  // unrecoverable epoll error
    Clock::time_point dispatch_start{};
    if (stats_iteration_) dispatch_start = Clock::now();
    if (stats_dispatch_batch_ && n > 0)
      stats_dispatch_batch_->record_us(static_cast<double>(n));
    // Snapshot each ready fd's registration generation before any handler
    // runs: a handler earlier in the batch may close an fd number and a
    // new connection may re-register it, and the stale kernel event must
    // not be delivered to the new handler.
    std::vector<std::uint64_t> batch_gen(static_cast<std::size_t>(n), 0);
    for (int i = 0; i < n; ++i) {
      auto it = fds_.find(events[i].data.fd);
      if (it != fds_.end()) batch_gen[static_cast<std::size_t>(i)] =
          it->second.generation;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      auto it = fds_.find(fd);
      if (it == fds_.end()) continue;  // removed earlier in this batch
      if (it->second.generation != batch_gen[static_cast<std::size_t>(i)])
        continue;  // fd number recycled since epoll_wait
      it->second.handler(events[i].events);
    }
    if (n == static_cast<int>(events.size())) events.resize(events.size() * 2);
    if (post_hook_) post_hook_();
    if (stats_iteration_)
      stats_iteration_->record(Clock::now() - dispatch_start);
  }
}

void EventLoop::stop() {
  stop_requested_.store(true, std::memory_order_relaxed);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(wake_fd_, &one, sizeof(one));
}

}  // namespace tecfan::cluster
