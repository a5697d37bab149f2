// JSON string escaping, shared by every JSON writer in the tree (the
// auditor's report and the mcktrace/mckdiff exports).
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace mck::util {

/// `s` as the body of a JSON string literal (no surrounding quotes):
/// quote and backslash are backslash-escaped, other control characters
/// become \u00XX.
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace mck::util
