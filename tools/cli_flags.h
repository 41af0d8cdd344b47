// Strict numeric flag values for the daemons' command lines (tecfand,
// tecrouter).
//
// The whole token must parse (std::from_chars: no sign on unsigned types,
// no leading blanks, no trailing text) and land inside the flag's range.
// A bad value is a usage error the caller turns into exit status 2 — not
// a port silently wrapped mod 65536, an ephemeral port picked for "abc",
// or an abort on a size_t that wrapped from -1.
#pragma once

#include <charconv>
#include <cstdint>
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

}  // namespace tecfan::cli
