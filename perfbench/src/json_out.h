// Minimal JSON object writer for the harness's one-line reports.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace perfbench {

/// `v` as a JSON string literal (control characters become spaces).
inline std::string quote(std::string_view v) {
  std::string out = "\"";
  for (const char c : v) {
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

/// `v` with every digit it has; non-finite values become null.
inline std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

class JsonObject {
 public:
  JsonObject& num(std::string_view key, double v) { return raw(key, number(v)); }
  JsonObject& integer(std::string_view key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(std::string_view key, std::string_view v) {
    return raw(key, quote(v));
  }
  JsonObject& raw(std::string_view key, std::string_view json) {
    body_ += body_.empty() ? "{" : ",";
    body_ += '"';
    body_ += key;
    body_ += "\":";
    body_ += json;
    return *this;
  }
  std::string dump() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace perfbench
