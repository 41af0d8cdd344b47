#include "cluster/health_monitor.h"

#include <unistd.h>

#include <algorithm>
#include <optional>
#include <string>

#include "service/framing.h"
#include "service/request.h"
#include "util/error.h"

namespace tecfan::cluster {
namespace {

using Clock = std::chrono::steady_clock;

Clock::duration seconds_to_duration(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

}  // namespace

HealthMonitor::HealthMonitor(std::vector<std::uint16_t> ports,
                             Options options)
    : ports_(std::move(ports)), options_(options) {
  TECFAN_REQUIRE(!ports_.empty(), "HealthMonitor needs backends");
  TECFAN_REQUIRE(options_.down_after >= 1, "down_after must be >= 1");
  state_.reserve(ports_.size());
  for (std::size_t i = 0; i < ports_.size(); ++i)
    state_.push_back(std::make_unique<BackendState>());
}

HealthMonitor::~HealthMonitor() { stop(); }

void HealthMonitor::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (thread_.joinable()) return;
  stop_requested_ = false;
  const auto now = Clock::now();
  for (auto& st : state_) st->next_probe = now;
  thread_ = std::thread([this] { run(); });
}

void HealthMonitor::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!thread_.joinable()) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

std::size_t HealthMonitor::up_count() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < state_.size(); ++i)
    if (up(i)) ++n;
  return n;
}

void HealthMonitor::report_failure(std::size_t backend) {
  BackendState& st = *state_[backend];
  std::lock_guard<std::mutex> lock(st.obs_mu);
  ++st.epoch;  // invalidate any probe in flight
  apply_observation(st, false);
}

void HealthMonitor::report_success(std::size_t backend) {
  BackendState& st = *state_[backend];
  std::lock_guard<std::mutex> lock(st.obs_mu);
  ++st.epoch;
  apply_observation(st, true);
}

std::uint64_t HealthMonitor::begin_probe(std::size_t backend) const {
  BackendState& st = *state_[backend];
  std::lock_guard<std::mutex> lock(st.obs_mu);
  return st.epoch;
}

void HealthMonitor::finish_probe(std::size_t backend, bool ok,
                                 std::uint64_t token) {
  BackendState& st = *state_[backend];
  std::lock_guard<std::mutex> lock(st.obs_mu);
  if (st.epoch != token) {
    // A traffic report landed while the probe was in flight; its fresher
    // observation wins, whatever this probe saw.
    st.stale_probes.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  apply_observation(st, ok);
}

void HealthMonitor::probe_now() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!thread_.joinable()) {
    // Not started: probe synchronously on the caller's thread.
    lock.unlock();
    const auto now = Clock::now();
    for (auto& st : state_) st->next_probe = now;
    probe_round(now);
    return;
  }
  const std::uint64_t stamp = ++probe_requested_;
  cv_.notify_all();
  cv_.wait(lock, [this, stamp] {
    return probe_completed_ >= stamp || stop_requested_;
  });
}

HealthMonitor::BackendHealth HealthMonitor::health(std::size_t backend) const {
  const BackendState& st = *state_[backend];
  BackendHealth h;
  h.up = st.up.load(std::memory_order_acquire);
  h.probes = st.probes.load(std::memory_order_relaxed);
  h.probe_failures = st.probe_failures.load(std::memory_order_relaxed);
  h.markdowns = st.markdowns.load(std::memory_order_relaxed);
  h.stale_probes = st.stale_probes.load(std::memory_order_relaxed);
  h.last_rtt_us = st.last_rtt_us.load(std::memory_order_relaxed);
  return h;
}

void HealthMonitor::run() {
  for (;;) {
    std::uint64_t serving;
    {
      std::unique_lock<std::mutex> lock(mu_);
      const auto tick = seconds_to_duration(
          std::min(options_.interval_s, options_.backoff_base_s) * 0.5);
      cv_.wait_for(lock, tick, [this] {
        return stop_requested_ || probe_requested_ > probe_completed_;
      });
      if (stop_requested_) return;
      serving = probe_requested_;
    }
    const auto now = Clock::now();
    const bool forced = [this, serving] {
      std::lock_guard<std::mutex> lock(mu_);
      return serving > probe_completed_;
    }();
    if (forced)
      for (auto& st : state_) st->next_probe = now;
    probe_round(now);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (serving > probe_completed_) probe_completed_ = serving;
    }
    cv_.notify_all();
  }
}

void HealthMonitor::probe_round(Clock::time_point now) {
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    BackendState& st = *state_[i];
    if (now < st.next_probe) continue;
    const bool ok = ping(i);
    // Reschedule: healthy backends on the fixed period; down backends on
    // an exponential backoff with jitter so a whole restarted fleet does
    // not hammer a struggling backend in lockstep.
    double delay_s;
    if (ok) {
      st.backoff_exponent = 0;
      delay_s = options_.interval_s;
    } else {
      delay_s = std::min(
          options_.backoff_base_s * static_cast<double>(1 << st.backoff_exponent),
          options_.backoff_max_s);
      if (st.backoff_exponent < 16) ++st.backoff_exponent;
    }
    delay_s *= 1.0 + jitter_fraction();
    st.next_probe = now + seconds_to_duration(delay_s);
  }
}

bool HealthMonitor::ping(std::size_t backend) {
  BackendState& st = *state_[backend];
  st.probes.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t token = begin_probe(backend);
  const auto start = Clock::now();
  const auto deadline =
      start + seconds_to_duration(options_.ping_timeout_ms * 1e-3);
  bool ok = false;
  const int fd = service::connect_loopback(ports_[backend], deadline);
  if (fd >= 0) {
    service::LineReader reader(fd);
    if (service::send_all(fd, "ping\n")) {
      const auto reply = reader.read_line(deadline);
      ok = reply && service::parse_response(*reply).field("pong") ==
                        std::optional<std::string>("1");
    }
    ::close(fd);
  }
  if (ok) {
    st.last_rtt_us.store(
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count(),
        std::memory_order_relaxed);
  } else {
    st.probe_failures.fetch_add(1, std::memory_order_relaxed);
  }
  finish_probe(backend, ok, token);
  return ok;
}

void HealthMonitor::apply_observation(BackendState& st, bool ok) {
  if (ok) {
    // Mark-up is immediate: one good round trip proves the backend serves.
    st.consecutive_failures = 0;
    st.up.store(true, std::memory_order_release);
    return;
  }
  if (++st.consecutive_failures >= options_.down_after) {
    if (st.up.exchange(false, std::memory_order_acq_rel))
      st.markdowns.fetch_add(1, std::memory_order_relaxed);
  }
}

double HealthMonitor::jitter_fraction() {
  // xorshift64* — cheap, deterministic per seed; monitor thread only.
  std::uint64_t x = jitter_state_;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  jitter_state_ = x;
  const std::uint64_t scaled = (x * 2685821657736338717ull) >> 40;
  return 0.25 * static_cast<double>(scaled) / 16777216.0;
}

}  // namespace tecfan::cluster
