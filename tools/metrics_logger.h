// The daemons' --metrics-interval logger (tecfand, tecrouter).
//
// A sampling thread writes one stderr line per period, rendered from a
// single registry snapshot so every number in it describes the same
// instant (counters never run ahead of the histograms they explain):
// the nonzero counters and runtime gauges, then every non-empty stage
// histogram's count and percentiles. It polls every 50 ms, so shutdown
// never waits a full period.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "service/daemon.h"

namespace tecfan::cli {

class MetricsLogger {
 public:
  /// Logs `daemon`'s metrics as "<tag> metrics: ..." every `interval_s`
  /// seconds; 0 logs nothing. Declare it after the daemon: it stops (and
  /// joins its thread) on destruction.
  MetricsLogger(const service::Daemon& daemon, const char* tag,
                double interval_s) {
    if (interval_s <= 0) return;
    thread_ = std::thread([this, &daemon, tag, interval_s] {
      const auto step = std::chrono::duration_cast<
          std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(interval_s));
      auto next = std::chrono::steady_clock::now() + step;
      while (!stop_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        if (std::chrono::steady_clock::now() < next) continue;
        next += step;
        log(daemon, tag);
      }
    });
  }
  ~MetricsLogger() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  MetricsLogger(const MetricsLogger&) = delete;
  MetricsLogger& operator=(const MetricsLogger&) = delete;

 private:
  static void log(const service::Daemon& daemon, const char* tag) {
    const auto snapshot = daemon.metrics_snapshot();
    std::string line = std::string(tag) + " metrics:";
    const std::size_t empty = line.size();
    char buf[160];
    for (const auto& [name, value] : snapshot.counters) {
      if (value == 0) continue;
      line += ' ' + name + '=' + std::to_string(value);
    }
    for (const auto& [name, value] : snapshot.gauges) {
      if (value == 0.0) continue;
      std::snprintf(buf, sizeof(buf), " %s=%.0f", name.c_str(), value);
      line += buf;
    }
    for (const auto& [name, snap] : snapshot.histograms) {
      if (snap.count == 0) continue;
      std::snprintf(buf, sizeof(buf),
                    " %s(n=%llu p50=%.1fus p99=%.1fus max=%.1fus)",
                    name.c_str(), static_cast<unsigned long long>(snap.count),
                    snap.percentile(50.0), snap.percentile(99.0),
                    snap.max_us);
      line += buf;
    }
    if (line.size() == empty) line += " (no samples yet)";
    std::fprintf(stderr, "%s\n", line.c_str());
    std::fflush(stderr);
  }

  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace tecfan::cli
