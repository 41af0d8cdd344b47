#include "util/logging.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace tecfan::log {
namespace {

const char* level_name(Level lvl) {
  switch (lvl) {
    case Level::kError:
      return "ERROR";
    case Level::kWarn:
      return "WARN";
    case Level::kInfo:
      return "INFO";
    case Level::kDebug:
      return "DEBUG";
    case Level::kTrace:
      return "TRACE";
  }
  return "?";
}

}  // namespace

Level level() {
  static const Level lvl = [] {
    const char* env = std::getenv("TECFAN_LOG");
    return env != nullptr ? parse_level(env) : Level::kWarn;
  }();
  return lvl;
}

Level parse_level(const std::string& name) {
  if (name == "error") return Level::kError;
  if (name == "warn") return Level::kWarn;
  if (name == "info") return Level::kInfo;
  if (name == "debug") return Level::kDebug;
  if (name == "trace") return Level::kTrace;
  return Level::kWarn;
}

void emit(Level lvl, const std::string& msg) {
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  std::fprintf(stderr, "[tecfan %s] %s\n", level_name(lvl), msg.c_str());
}

}  // namespace tecfan::log
