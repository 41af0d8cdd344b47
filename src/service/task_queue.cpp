#include "service/task_queue.h"

#include "util/error.h"

namespace tecfan::service {

TaskQueue::TaskQueue(std::size_t capacity) : capacity_(capacity) {
  TECFAN_REQUIRE(capacity > 0, "task queue capacity must be positive");
}

bool TaskQueue::try_push(Task task) {
  TECFAN_REQUIRE(static_cast<bool>(task.run), "task must have work attached");
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || tasks_.size() >= capacity_) return false;
    tasks_.push_back(std::move(task));
  }
  not_empty_.notify_one();
  return true;
}

std::optional<Task> TaskQueue::pop() {
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait(lock, [this] { return closed_ || !tasks_.empty(); });
  if (tasks_.empty()) return std::nullopt;  // closed and drained
  Task task = std::move(tasks_.front());
  tasks_.pop_front();
  return task;
}

void TaskQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
}

std::deque<Task> TaskQueue::drain() {
  std::deque<Task> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.swap(tasks_);
  }
  return out;
}

std::size_t TaskQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_.size();
}

}  // namespace tecfan::service
