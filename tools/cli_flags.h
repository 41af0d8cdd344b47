// Command lines of the tools (tecfand, tecrouter, loadgen, chaos,
// chaosproxy, tracecat, tecfan_cli): one flag walk and strict values.
//
// Flags are space-separated (`--port 7411`, never `--port=7411`). A numeric
// value must parse whole (std::from_chars: no sign on unsigned types, no
// leading blanks, no trailing text) and land inside the flag's range. A
// bad value or an unknown flag is a usage error the caller turns into
// exit status 2 — not a port silently wrapped mod 65536, an ephemeral
// port picked for "abc", or an abort on a size_t that wrapped from -1.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace tecfan::cli {

/// Parse all of `text` as a number in [lo, hi] into `out` (untouched on
/// failure). NaN and infinities are outside every range.
template <typename T>
bool parse_number(std::string_view text, T& out, std::type_identity_t<T> lo,
                  std::type_identity_t<T> hi) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi))
    return false;
  out = value;
  return true;
}

/// A loopback TCP port; 0 (pick an ephemeral port) only when
/// `allow_ephemeral`.
inline bool parse_port(std::string_view text, std::uint16_t& out,
                       bool allow_ephemeral) {
  return parse_number(text, out, allow_ephemeral ? 0 : 1, 65535);
}

/// A comma-separated list of nonzero ports ("7411,7412"); host:port specs
/// and empty entries are rejected.
inline bool parse_ports(std::string_view list,
                        std::vector<std::uint16_t>& out) {
  for (;;) {
    const std::size_t comma = list.find(',');
    std::uint16_t port = 0;
    if (!parse_port(list.substr(0, comma), port, false)) return false;
    out.push_back(port);
    if (comma == std::string_view::npos) return true;
    list.remove_prefix(comma + 1);
  }
}

/// One flag on the command line, handed to a tool's handler by
/// parse_flags(). The handler matches is() and reads the flag through
/// one of the calls below, which consume its value (the next argument;
/// a missing one reads as "") and return whether it is well-formed. A
/// flag the handler does not know returns unknown().
class Flag {
 public:
  Flag(int argc, char** argv, int& index)
      : name_(argv[index]), argc_(argc), argv_(argv), index_(index) {}

  bool is(std::string_view name) const { return name_ == name; }

  /// A switch: takes no value.
  bool set(bool& out, bool value = true) {
    out = value;
    return true;
  }
  template <typename T>
  bool number(T& out, std::type_identity_t<T> lo,
              std::type_identity_t<T> hi) {
    return parse_number(value(), out, lo, hi);
  }
  /// The whole range of T (seeds, sampling periods).
  template <typename T>
  bool number(T& out) {
    return number(out, std::numeric_limits<T>::lowest(),
                  std::numeric_limits<T>::max());
  }
  bool port(std::uint16_t& out, bool allow_ephemeral) {
    return parse_port(value(), out, allow_ephemeral);
  }
  bool port(std::optional<std::uint16_t>& out, bool allow_ephemeral) {
    std::uint16_t port = 0;
    if (!this->port(port, allow_ephemeral)) return false;
    out = port;
    return true;
  }
  bool ports(std::vector<std::uint16_t>& out) {
    return parse_ports(value(), out);
  }
  bool text(std::string& out) {
    out = value();
    return value_present_;
  }
  bool unknown() {
    unknown_ = true;
    return false;
  }

  /// The usage error for a flag its handler rejected.
  void report() const {
    if (unknown_) {
      std::fprintf(stderr, "unknown argument: %.*s\n",
                   static_cast<int>(name_.size()), name_.data());
    } else {
      std::fprintf(stderr, "invalid value for %.*s: '%.*s'\n",
                   static_cast<int>(name_.size()), name_.data(),
                   static_cast<int>(value_.size()), value_.data());
    }
  }

 private:
  std::string_view value() {
    value_present_ = index_ + 1 < argc_;
    if (value_present_) value_ = argv_[++index_];
    return value_;
  }

  std::string_view name_;
  std::string_view value_;
  int argc_;
  char** argv_;
  int& index_;
  bool value_present_ = false;
  bool unknown_ = false;
};

/// Walk argv: `--help`/`-h` sets `help`; every other flag goes to
/// `handler(Flag&)`. Returns false, after printing why, at the first flag
/// the handler rejects.
template <typename Handler>
bool parse_flags(int argc, char** argv, bool& help, Handler handler) {
  for (int i = 1; i < argc; ++i) {
    Flag flag(argc, argv, i);
    if (flag.is("--help") || flag.is("-h")) {
      help = true;
    } else if (!handler(flag)) {
      flag.report();
      return false;
    }
  }
  return true;
}

}  // namespace tecfan::cli
