// Appenders for rendered text: JSON string escaping and printf-identical
// numbers, written straight into a caller's buffer with no format string
// and no temporary string. The serve response bodies, the MO paths and the
// obs JSON documents all render through these.
//
// Header-only on purpose: auric_obs sits below auric_util in the link
// order, so obs includes this without linking util.
#pragma once

#include <charconv>
#include <concepts>
#include <limits>
#include <string>
#include <string_view>

namespace auric::util {

/// Appends `text` to `out` escaped for the inside of a JSON string literal:
/// `"` and `\` get a backslash, newline, tab and carriage return their short
/// forms, and every other byte below 0x20 becomes `\u00XX`. Bytes >= 0x20
/// (UTF-8 included) pass through unchanged.
inline void append_json_escaped(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const auto byte = static_cast<unsigned char>(c);
          const char escaped[] = {'\\', 'u', '0', '0', kHex[byte >> 4], kHex[byte & 0xF]};
          out.append(escaped, sizeof(escaped));
        } else {
          out += c;
        }
    }
  }
}

/// Appends `value` in decimal (printf's %d / %lld / %llu).
template <std::integral Int>
void append_int(std::string& out, Int value) {
  char buf[std::numeric_limits<Int>::digits10 + 3];  // digits, sign, round-up
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, end);
}

/// Appends `value` as printf's "%g" does. C++17 specifies to_chars with
/// chars_format::general and precision 6 as exactly that conversion.
inline void append_general(std::string& out, double value) {
  char buf[32];  // "-d.ddddde-ddd" at most
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::general, 6);
  out.append(buf, end);
}

/// Appends `value` as printf's "%.4f" does (to_chars with
/// chars_format::fixed and precision 4, specified as that conversion).
inline void append_fixed4(std::string& out, double value) {
  // Sign, every integer digit of the largest double, point, four decimals.
  char buf[1 + std::numeric_limits<double>::max_exponent10 + 1 + 1 + 4];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::fixed, 4);
  out.append(buf, end);
}

}  // namespace auric::util
