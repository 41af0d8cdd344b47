// Seeded fault schedule for the service::FaultInjector hook that the
// framing layer's syscall wrappers consult; tests arm it with
// service::ScopedFaultInjector. A failing chaos run replays exactly with
// the same seed. Destructive fault classes (refusal, resets, EOF) can be
// scoped to a set of ports via the connect hook; send/recv faults apply
// to every socket in the process, so storms that use them must stick to
// semantically invisible classes (short writes, delays) unless the test
// owns every connection.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "service/fault_injection.h"

namespace tecfan::testing {

/// Deterministic seeded injector: each hook draws one number from a
/// splitmix64 stream indexed by a global atomic operation counter, so the
/// decision sequence depends only on the seed and the interleaving-free
/// count of operations — concurrent callers may swap draws, but the
/// multiset of injected faults per N operations is fixed.
class ScheduledFaultInjector final : public service::FaultInjector {
 public:
  struct Options {
    std::uint64_t seed = 1;
    /// connect(): refuse (ECONNREFUSED) with this probability. Only
    /// applied to ports listed in `connect_ports` (empty = every port).
    double connect_refuse_p = 0.0;
    std::vector<std::uint16_t> connect_ports;
    /// send()/sendmsg(): cap the operation at `send_short_cap` bytes.
    double send_short_p = 0.0;
    std::size_t send_short_cap = 1;
    /// send(): fail with `send_error` (default ECONNRESET).
    double send_fail_p = 0.0;
    int send_error = 0;
    /// send(): sleep `send_delay_us` first.
    double send_delay_p = 0.0;
    std::uint32_t send_delay_us = 200;
    /// recv(): cap at `recv_short_cap` bytes (slow-loris style dribble).
    double recv_short_p = 0.0;
    std::size_t recv_short_cap = 1;
    /// recv(): pretend the peer closed.
    double recv_eof_p = 0.0;
    /// recv(): fail with `recv_error` (default ECONNRESET).
    double recv_fail_p = 0.0;
    int recv_error = 0;
    /// recv(): sleep `recv_delay_us` first (latency spike).
    double recv_delay_p = 0.0;
    std::uint32_t recv_delay_us = 200;
  };

  struct Counts {
    std::uint64_t connects_refused = 0;
    std::uint64_t sends_shortened = 0;
    std::uint64_t sends_failed = 0;
    std::uint64_t sends_delayed = 0;
    std::uint64_t recvs_shortened = 0;
    std::uint64_t recvs_eof = 0;
    std::uint64_t recvs_failed = 0;
    std::uint64_t recvs_delayed = 0;
    std::uint64_t operations = 0;
    std::uint64_t total_injected() const {
      return connects_refused + sends_shortened + sends_failed +
             sends_delayed + recvs_shortened + recvs_eof + recvs_failed +
             recvs_delayed;
    }
  };

  explicit ScheduledFaultInjector(Options options);

  service::FaultDecision on_connect(std::uint16_t port) override;
  service::FaultDecision on_send(int fd, std::size_t bytes) override;
  service::FaultDecision on_recv(int fd) override;

  Counts counts() const;

 private:
  /// Uniform draw in [0, 1) from the seeded stream.
  double next_unit();

  Options options_;
  std::atomic<std::uint64_t> op_counter_{0};
  std::atomic<std::uint64_t> connects_refused_{0};
  std::atomic<std::uint64_t> sends_shortened_{0};
  std::atomic<std::uint64_t> sends_failed_{0};
  std::atomic<std::uint64_t> sends_delayed_{0};
  std::atomic<std::uint64_t> recvs_shortened_{0};
  std::atomic<std::uint64_t> recvs_eof_{0};
  std::atomic<std::uint64_t> recvs_failed_{0};
  std::atomic<std::uint64_t> recvs_delayed_{0};
};

}  // namespace tecfan::testing
