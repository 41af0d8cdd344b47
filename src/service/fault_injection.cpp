#include "service/fault_injection.h"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <thread>

namespace tecfan::service {

namespace detail {
std::atomic<FaultInjector*> g_fault_injector{nullptr};
}  // namespace detail

void install_fault_injector(FaultInjector* injector) {
  detail::g_fault_injector.store(injector, std::memory_order_release);
}

FaultDecision settle_fault_delay(FaultDecision d) {
  if (d.kind == FaultDecision::Kind::kDelay && d.delay_us > 0)
    std::this_thread::sleep_for(std::chrono::microseconds(d.delay_us));
  return d;
}

ssize_t faulted_recv(int fd, void* buf, std::size_t len, int flags) {
  if (FaultInjector* fi = active_fault_injector()) {
    const FaultDecision d = settle_fault_delay(fi->on_recv(fd));
    switch (d.kind) {
      case FaultDecision::Kind::kFail:
        errno = d.error != 0 ? d.error : ECONNRESET;
        return -1;
      case FaultDecision::Kind::kEof:
        return 0;
      case FaultDecision::Kind::kShort:
        len = std::min(len, std::max<std::size_t>(d.cap, 1));
        break;
      case FaultDecision::Kind::kNone:
      case FaultDecision::Kind::kDelay:
        break;
    }
  }
  return ::recv(fd, buf, len, flags);
}

}  // namespace tecfan::service
