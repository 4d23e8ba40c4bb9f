// Small string helpers shared across the project.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace auric::util {

/// Split `text` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Join items with `sep`.
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// Trim ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Lower-case ASCII copy.
std::string to_lower(std::string_view text);

/// Value of `key` in an HTTP query string ("a=1&b=2"), or empty. The first
/// `key=` pair wins; a bare `key` with no `=` does not match. Inline because
/// obs (which sits below util in the link order) parses queries too.
inline std::string_view query_param(std::string_view query, std::string_view key) {
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    const std::string_view pair = amp == std::string_view::npos ? query : query.substr(0, amp);
    query = amp == std::string_view::npos ? std::string_view{} : query.substr(amp + 1);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return pair.substr(eq + 1);
    }
  }
  return {};
}

/// printf-style formatting into std::string (type-checked by the compiler).
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Fixed-point formatting with `digits` decimals (e.g. format_fixed(95.478, 2)
/// -> "95.48"). Used by the report tables so outputs match the paper layout.
std::string format_fixed(double value, int digits);

/// Human-readable integer with thousands separators ("4528139" -> "4,528,139").
std::string with_commas(long long value);

}  // namespace auric::util
