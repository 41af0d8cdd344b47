// Listener-lifecycle checks for every daemon built on the shared shell
// (service/daemon.h): tecfand's Server in service_test (ServerLifecycle)
// and tecrouter's Router in cluster_test (RouterLifecycle). Each helper
// takes a factory for a fresh, unbound daemon.
#pragma once

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>

#include "service/daemon.h"
#include "service/framing.h"

namespace tecfan::lifecycle {

using MakeDaemon = std::function<std::unique_ptr<service::Daemon>()>;

/// stop() fully releases the listening socket: the same port binds again
/// (SO_REUSEADDR covers the TIME_WAIT tail) and the new daemon answers.
inline void rebind_after_stop(const MakeDaemon& make) {
  std::uint16_t port = 0;
  {
    const auto first = make();
    port = first->start();
    ASSERT_GT(port, 0u);
    first->stop();
  }
  const auto second = make();
  ASSERT_EQ(second->start(port), port);
  const int fd = service::connect_loopback(port);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(service::send_all(fd, "ping\nquit\n"));
  char buf[128];
  EXPECT_GT(::recv(fd, buf, sizeof(buf), 0), 0);
  ::close(fd);
  second->stop();
}

/// stop() may land before, during, or after the serve loop settles;
/// every interleaving must return from serve() and join cleanly.
inline void stop_racing_serve(const MakeDaemon& make) {
  for (int round = 0; round < 5; ++round) {
    const auto daemon = make();
    daemon->start();
    if (round > 0)
      std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
    daemon->stop();
  }
}

/// stop() closes open sessions — an idle one and one with a partial
/// (unterminated) request line buffered — and returns, instead of waiting
/// for the line to complete.
inline void stop_drains_open_sessions(const MakeDaemon& make) {
  const auto daemon = make();
  const std::uint16_t port = daemon->start();
  const int idle_fd = service::connect_loopback(port);
  const int partial_fd = service::connect_loopback(port);
  ASSERT_GE(idle_fd, 0);
  ASSERT_GE(partial_fd, 0);
  ASSERT_TRUE(service::send_all(partial_fd, "equilibrium workload=water"));
  // Let the daemon pick both connections up.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  daemon->stop();

  // Both clients observe EOF (connection closed daemon-side), not a hang.
  char buf[64];
  EXPECT_LE(::recv(idle_fd, buf, sizeof(buf), 0), 0);
  EXPECT_LE(::recv(partial_fd, buf, sizeof(buf), 0), 0);
  ::close(idle_fd);
  ::close(partial_fd);
}

}  // namespace tecfan::lifecycle
