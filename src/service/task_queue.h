// Bounded MPMC task queue with backpressure.
//
// The serving path must never queue unbounded work: when the queue is full
// try_push fails and the session front-end answers `busy` instead (the
// closed-loop clients of loadgen then retry at their own pace). Tasks carry
// an optional deadline and an `expire` continuation, so a task that waited
// past its deadline can still answer its caller (with a deadline error)
// instead of silently vanishing.
//
// This queue backs the persistent service worker pool; it is deliberately
// distinct from util/parallel.h, which remains the fork-join primitive for
// intra-run fan-level sweeps.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>

namespace tecfan::service {

struct Task {
  /// The work itself; must not be empty for a pushed task.
  std::function<void()> run;
  /// Invoked *instead of* run when the deadline passed while queued, or
  /// when the queue is shut down without draining. May be empty.
  std::function<void()> expire;
  /// steady_clock deadline; time_point::max() means none.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Stamped by WorkerPool::submit; dequeue-side telemetry measures the
  /// queue-wait span (submit to dequeue) from it.
  std::chrono::steady_clock::time_point enqueued_at{};

  bool expired(std::chrono::steady_clock::time_point now) const {
    return deadline < now;
  }
};

class TaskQueue {
 public:
  explicit TaskQueue(std::size_t capacity);

  TaskQueue(const TaskQueue&) = delete;
  TaskQueue& operator=(const TaskQueue&) = delete;

  /// Enqueue; returns false (backpressure) when full or closed.
  bool try_push(Task task);

  /// Blocking dequeue. Returns nullopt once the queue is closed *and*
  /// drained; until then pending tasks keep being handed out so a graceful
  /// shutdown finishes accepted work.
  std::optional<Task> pop();

  /// Close the queue: subsequent try_push fails, blocked poppers drain the
  /// remaining tasks and then wake up empty-handed.
  void close();

  /// Remove and return every queued task (used by a drop shutdown, which
  /// then runs each task's expire continuation).
  std::deque<Task> drain();

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::deque<Task> tasks_;
  bool closed_ = false;
};

}  // namespace tecfan::service
