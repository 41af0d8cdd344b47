#include "testing/scheduled_fault_injector.h"

#include <algorithm>
#include <cerrno>
#include <utility>

namespace tecfan::testing {

using service::FaultDecision;

namespace {

/// splitmix64: stateless per-index mixing so concurrent draws need only
/// one atomic counter, and the sequence for a seed is reproducible.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

ScheduledFaultInjector::ScheduledFaultInjector(Options options)
    : options_(std::move(options)) {
  if (options_.send_error == 0) options_.send_error = ECONNRESET;
  if (options_.recv_error == 0) options_.recv_error = ECONNRESET;
}

double ScheduledFaultInjector::next_unit() {
  const std::uint64_t index =
      op_counter_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t mixed = splitmix64(options_.seed ^ (index + 1));
  return static_cast<double>(mixed >> 11) * 0x1.0p-53;
}

FaultDecision ScheduledFaultInjector::on_connect(std::uint16_t port) {
  if (options_.connect_refuse_p <= 0) return {};
  if (!options_.connect_ports.empty() &&
      std::find(options_.connect_ports.begin(), options_.connect_ports.end(),
                port) == options_.connect_ports.end()) {
    return {};
  }
  if (next_unit() >= options_.connect_refuse_p) return {};
  connects_refused_.fetch_add(1, std::memory_order_relaxed);
  FaultDecision d;
  d.kind = FaultDecision::Kind::kFail;
  d.error = ECONNREFUSED;
  return d;
}

FaultDecision ScheduledFaultInjector::on_send(int, std::size_t bytes) {
  FaultDecision d;
  if (options_.send_fail_p > 0 && next_unit() < options_.send_fail_p) {
    sends_failed_.fetch_add(1, std::memory_order_relaxed);
    d.kind = FaultDecision::Kind::kFail;
    d.error = options_.send_error;
    return d;
  }
  if (options_.send_short_p > 0 && bytes > options_.send_short_cap &&
      next_unit() < options_.send_short_p) {
    sends_shortened_.fetch_add(1, std::memory_order_relaxed);
    d.kind = FaultDecision::Kind::kShort;
    d.cap = options_.send_short_cap;
    return d;
  }
  if (options_.send_delay_p > 0 && next_unit() < options_.send_delay_p) {
    sends_delayed_.fetch_add(1, std::memory_order_relaxed);
    d.kind = FaultDecision::Kind::kDelay;
    d.delay_us = options_.send_delay_us;
    return d;
  }
  return d;
}

FaultDecision ScheduledFaultInjector::on_recv(int) {
  FaultDecision d;
  if (options_.recv_fail_p > 0 && next_unit() < options_.recv_fail_p) {
    recvs_failed_.fetch_add(1, std::memory_order_relaxed);
    d.kind = FaultDecision::Kind::kFail;
    d.error = options_.recv_error;
    return d;
  }
  if (options_.recv_eof_p > 0 && next_unit() < options_.recv_eof_p) {
    recvs_eof_.fetch_add(1, std::memory_order_relaxed);
    d.kind = FaultDecision::Kind::kEof;
    return d;
  }
  if (options_.recv_short_p > 0 && next_unit() < options_.recv_short_p) {
    recvs_shortened_.fetch_add(1, std::memory_order_relaxed);
    d.kind = FaultDecision::Kind::kShort;
    d.cap = options_.recv_short_cap;
    return d;
  }
  if (options_.recv_delay_p > 0 && next_unit() < options_.recv_delay_p) {
    recvs_delayed_.fetch_add(1, std::memory_order_relaxed);
    d.kind = FaultDecision::Kind::kDelay;
    d.delay_us = options_.recv_delay_us;
    return d;
  }
  return d;
}

ScheduledFaultInjector::Counts ScheduledFaultInjector::counts() const {
  Counts c;
  c.connects_refused = connects_refused_.load(std::memory_order_relaxed);
  c.sends_shortened = sends_shortened_.load(std::memory_order_relaxed);
  c.sends_failed = sends_failed_.load(std::memory_order_relaxed);
  c.sends_delayed = sends_delayed_.load(std::memory_order_relaxed);
  c.recvs_shortened = recvs_shortened_.load(std::memory_order_relaxed);
  c.recvs_eof = recvs_eof_.load(std::memory_order_relaxed);
  c.recvs_failed = recvs_failed_.load(std::memory_order_relaxed);
  c.recvs_delayed = recvs_delayed_.load(std::memory_order_relaxed);
  c.operations = op_counter_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace tecfan::testing
