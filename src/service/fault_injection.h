// Deterministic fault injection for the socket/pipe boundary.
//
// Every syscall the framing layer makes on behalf of the service and
// cluster code — connect_loopback() dials (and the epoll plane's raw
// nonblocking connects), send_all(), WriteQueue::flush()'s gathered
// sendmsg(), and the recv() loops behind LineReader::read_line() and the
// epoll plane's session/pipe readers — first consults a process-global
// FaultInjector hook. With no injector installed (the default, and the
// only supported production state) the hook is a single relaxed atomic
// load and a predictable branch; the chaos tests measure that cost at
// well under the 3% budget the acceptance criteria allow.
//
// An installed injector returns a FaultDecision per operation:
//
//   kNone   — proceed untouched
//   kFail   — fail the syscall with `error` (errno-style)
//   kEof    — recv paths: pretend the peer performed an orderly close
//   kShort  — cap the byte count (partial writes / dribbled reads)
//   kDelay  — sleep `delay_us`, then proceed (latency spike)
//
// The seeded injector the tests arm lives in src/testing
// (testing::ScheduledFaultInjector); this library only carries the hook.
//
// Installation is not synchronized against in-flight operations: install
// before traffic starts, uninstall after it quiesces (the chaos harness
// does both). Library threads only ever read the pointer.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <sys/types.h>

namespace tecfan::service {

struct FaultDecision {
  enum class Kind : std::uint8_t { kNone, kFail, kEof, kShort, kDelay };
  Kind kind = Kind::kNone;
  int error = 0;             // kFail: errno to report
  std::size_t cap = 0;       // kShort: max bytes for this operation
  std::uint32_t delay_us = 0;  // kDelay: sleep before proceeding
};

class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  /// About to connect() to 127.0.0.1:port (both blocking dials and the
  /// epoll plane's nonblocking pipe dials).
  virtual FaultDecision on_connect(std::uint16_t port) = 0;
  /// About to send()/sendmsg() `bytes` bytes on `fd`.
  virtual FaultDecision on_send(int fd, std::size_t bytes) = 0;
  /// About to recv() on `fd`.
  virtual FaultDecision on_recv(int fd) = 0;
};

/// Install a process-global injector (nullptr disarms). The injector is
/// borrowed, not owned — it must outlive every operation it can observe.
void install_fault_injector(FaultInjector* injector);

namespace detail {
extern std::atomic<FaultInjector*> g_fault_injector;
}  // namespace detail

/// The hot-path probe: one relaxed load, nullptr in production.
inline FaultInjector* active_fault_injector() {
  return detail::g_fault_injector.load(std::memory_order_acquire);
}

/// Sleep out a kDelay decision (no-op for every other kind); returns the
/// decision so call sites can chain on it.
FaultDecision settle_fault_delay(FaultDecision d);

/// recv() with the injector consulted first. Behaves exactly like recv()
/// when no injector is installed; used by the blocking LineReader path
/// and the epoll plane's session/pipe read loops.
ssize_t faulted_recv(int fd, void* buf, std::size_t len, int flags);

/// RAII install/uninstall for tests: installs on construction, disarms on
/// destruction (only if still the active injector).
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(FaultInjector* injector) : injector_(injector) {
    install_fault_injector(injector_);
  }
  ~ScopedFaultInjector() {
    if (active_fault_injector() == injector_) install_fault_injector(nullptr);
  }
  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;

 private:
  FaultInjector* injector_;
};

}  // namespace tecfan::service
