// Minimal leveled logger.
//
// The simulator is a batch tool; logging goes to stderr so that bench output
// on stdout stays machine-parsable. Level is a process-global setting,
// read once from the TECFAN_LOG environment variable
// (error|warn|info|debug|trace).
#pragma once

#include <sstream>
#include <string>

namespace tecfan::log {

enum class Level { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3, kTrace = 4 };

/// Current global log level (default: kWarn, or TECFAN_LOG if set).
Level level();

/// Parse a level name; returns kWarn on unknown names.
Level parse_level(const std::string& name);

/// Emit one log line (thread-safe).
void emit(Level lvl, const std::string& msg);

namespace detail {
class LineStream {
 public:
  explicit LineStream(Level lvl) : lvl_(lvl) {}
  LineStream(const LineStream&) = delete;
  LineStream& operator=(const LineStream&) = delete;
  ~LineStream() { emit(lvl_, os_.str()); }
  template <typename T>
  LineStream& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  Level lvl_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace tecfan::log

#define TECFAN_LOG(lvl)                            \
  if (::tecfan::log::level() < (lvl)) {            \
  } else                                           \
    ::tecfan::log::detail::LineStream(lvl)

#define TECFAN_LOG_ERROR TECFAN_LOG(::tecfan::log::Level::kError)
#define TECFAN_LOG_WARN TECFAN_LOG(::tecfan::log::Level::kWarn)
#define TECFAN_LOG_INFO TECFAN_LOG(::tecfan::log::Level::kInfo)
#define TECFAN_LOG_DEBUG TECFAN_LOG(::tecfan::log::Level::kDebug)
#define TECFAN_LOG_TRACE TECFAN_LOG(::tecfan::log::Level::kTrace)
